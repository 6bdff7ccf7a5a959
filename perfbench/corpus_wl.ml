(* corpus-hmm and corpus-csp: a fixed corpus sample, each site's first
   list page (plus siblings) segmented through [Serve.Service]. Every
   request is cold: a pass over the sample uses a fresh service, so no
   request finds its result or template in a cache.

   The timed passes run one worker domain, fed by one client thread that
   waits for each reply before it submits the next site. A site's
   latency is then the CPU time the whole process spent on it, and the
   rates are per CPU-second of the process. With two worker domains the
   figures would be at the mercy of the host: the domains stop together
   for every minor collection, so whenever the hypervisor takes one
   virtual CPU away the other waits, and the time per site doubled under
   heavy steal. After the timed passes, with the clock stopped, a pass
   at two worker domains checks that the responses stay byte-identical
   (and, traced, measures what running in parallel costs per site). *)

module Api = Tabseg.Api
module Service = Tabseg_serve.Service
module Cache = Tabseg_serve.Cache
module Family = Tabseg_corpus.Family
module Harness = Tabseg_corpus.Harness
module Scorer = Tabseg_eval.Scorer
module Eval_metrics = Tabseg_eval.Metrics

type site = {
  name : string;
  input : Tabseg.Pipeline.input;
  truth : string list list;
}

type shape = {
  method_ : Api.method_;
  sites : int;  (** corpus sample size: one pass *)
  rows_per_page : int;  (** upper bound of the rows-per-page law *)
  tail_q : float;  (** the latency tail this workload reports *)
  parallel_check : int;  (** sites checked at two worker domains *)
}

(* One pass over the sample takes about 8 CPU-seconds in both. *)
let hmm =
  { method_ = Api.Probabilistic; sites = 100; rows_per_page = 3; tail_q = 0.90;
    parallel_check = 32 }

let csp =
  { method_ = Api.Csp; sites = 1000; rows_per_page = 25; tail_q = 0.99;
    parallel_check = 200 }

let parallel_jobs = 2

(* The corpus is drawn from this fixed seed, content included; the run's
   seed orders the requests. A site's cost varies with what its pages
   say, on the HMM from 2 ms to 550 ms, and the same site took 12 ms with
   one content and 188 ms with another: a run over a few hundred sites
   would measure which content its seed drew, not the program. Sites
   have at least 60 rows, so the scored page is full. *)
let corpus_seed = 2004

let sample ~sites ~rows_per_page =
  Family.sample
    {
      Family.default_params with
      Family.sites;
      seed = corpus_seed;
      min_rows = 60;
      max_rows_per_page = rows_per_page;
    }

let generate shape =
  sample ~sites:shape.sites ~rows_per_page:shape.rows_per_page
  |> Harness.site_inputs ~siblings:3
  |> List.map (fun (name, input, truth) -> { name; input; truth })
  |> Array.of_list

(* A seeded permutation of [0, n). *)
let shuffle ~seed n =
  let a = Array.init n Fun.id in
  let rng = Random.State.make [| seed |] in
  for i = n - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let x = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- x
  done;
  Array.to_list a

let inputs_digest sites =
  Digest.to_hex
    (Digest.string
       (Marshal.to_string
          (Array.map (fun s -> (s.name, s.input, s.truth)) sites)
          [ Marshal.No_sharing ]))

let service_config ~jobs shape =
  {
    Service.default_config with
    Service.jobs;
    method_ = shape.method_;
    cache = Some Cache.default_config;
  }

type sample = {
  index : int;  (** site index in the sample *)
  cpu_s : float;  (** process CPU, submit to response; one worker only *)
  client_s : float;  (** submit to response, wall *)
  worker_s : float;  (** the response's in-worker latency *)
  digest : Digest.t option;  (** [None] for an error response *)
  records : int;
}

type pass = {
  samples : sample list;
  errors : string list;
  stats : Cache.stats option * Tabseg_serve.Pool.stats;
}

(* One pass over [indices], in order, through a fresh service with [jobs]
   worker domains, from [jobs] client threads that each wait for their
   reply before taking the next site. A [reference] is sampled between
   sites. *)
let pass ?reference ~jobs shape sites indices =
  let service = Service.create ~config:(service_config ~jobs shape) () in
  let lock = Mutex.create () in
  let queue = ref indices and samples = ref [] and errors = ref [] in
  let take () =
    Mutex.lock lock;
    let i = match !queue with i :: rest -> queue := rest; Some i | [] -> None in
    Mutex.unlock lock;
    i
  in
  let rec client () =
    match take () with
    | None -> ()
    | Some i ->
      let site = sites.(i) in
      let request = { Service.id = site.name; site = site.name; input = site.input } in
      let c0 = Measure.process_cpu () and t0 = Measure.now () in
      let response = Service.segment_one service request in
      let t1 = Measure.now () and c1 = Measure.process_cpu () in
      let digest, records =
        match response.Service.outcome with
        | Ok result ->
          ( Some (Layers.response_digest (Ok result)),
            List.length result.Api.segmentation.Tabseg.Segmentation.records )
        | Error e ->
          Mutex.lock lock;
          errors := Service.error_message e :: !errors;
          Mutex.unlock lock;
          (None, 0)
      in
      let s =
        { index = i; cpu_s = c1 -. c0; client_s = t1 -. t0;
          worker_s = response.Service.latency_s; digest; records }
      in
      Mutex.lock lock;
      samples := s :: !samples;
      Mutex.unlock lock;
      Option.iter Measure.reference_tick reference;
      client ()
  in
  List.iter Thread.join (List.init jobs (fun _ -> Thread.create client ()));
  let stats = (Service.cache_stats service, Service.pool_stats service) in
  Service.shutdown service;
  { samples = List.rev !samples; errors = !errors; stats }

type run = {
  passes : pass list;
  cpu_s : float;  (** this process's CPU time over the timed passes *)
  elapsed_s : float;  (** their wall time *)
  reference : Measure.reference;
}

(* Whole passes at one worker domain, until [seconds] of wall time have
   passed; the pass under way then is finished, so every site is served
   equally often. *)
let measure ~tracer ~seconds shape sites order =
  let subscription =
    if tracer.Measure.on then Some (Measure.subscribe_stages tracer ~req_of:(fun () -> ""))
    else None
  in
  let reference = Measure.reference () in
  let cpu0 = Measure.process_cpu () and started = Measure.now () in
  let rec go passes =
    let passes = pass ~reference ~jobs:1 shape sites order :: passes in
    if Measure.now () -. started >= seconds then List.rev passes else go passes
  in
  let passes = go [] in
  let cpu_s = Measure.process_cpu () -. cpu0 -. reference.Measure.spent_s in
  let elapsed_s = Measure.now () -. started in
  Option.iter Tabseg.Instrument.unsubscribe subscription;
  { passes; cpu_s; elapsed_s; reference }

(* What the reference computes for one site: the response digest and its
   counts against the generated truth. *)
type reference = { r_digest : Digest.t; r_counts : Eval_metrics.counts }

(* The inline reference for every site, split over two domains
   (untraced), or computed on the main domain with every layer span
   recorded (traced). *)
let reference ~tracer counts shape sites =
  let one tr c i =
    let site = sites.(i) in
    let outcome = Layers.segment tr c ~req:site.name ~method_:shape.method_ site.input in
    let r_counts =
      match outcome with
      | Ok r -> Scorer.score ~truth:site.truth r.Api.segmentation
      | Error _ -> { Eval_metrics.cor = 0; incor = 0; fp = 0; fn = List.length site.truth }
    in
    { r_digest = Layers.response_digest outcome; r_counts }
  in
  if tracer.Measure.on then Array.init (Array.length sites) (one tracer counts)
  else begin
    let n = Array.length sites in
    let half = n / 2 in
    let work lo hi () =
      let c = Layers.counts () in
      Array.init (hi - lo) (fun k -> one (Measure.tracer false) c (lo + k))
    in
    let d = Domain.spawn (work half n) in
    let mine = work 0 half () in
    Array.append mine (Domain.join d)
  end

let run ~seed ~seconds ~trace shape =
  let tracer = Measure.tracer trace in
  (* Set-up, several times: sample and render the corpus, start a
     service. Only the last rendering is kept; the others must digest the
     same. *)
  let sites, times, digests =
    Measure.repeat_setup ~digest:inputs_digest (fun () ->
        let sites = generate shape in
        Service.shutdown (Service.create ~config:(service_config ~jobs:1 shape) ());
        sites)
  in
  let inputs_repeat = List.for_all (( = ) (List.hd digests)) digests in
  let setup_s = Measure.median times in
  let order = shuffle ~seed (Array.length sites) in
  Measure.reset_peak ();
  let gc0 = Measure.gc_mark () in
  let w = measure ~tracer ~seconds shape sites order in
  let gc_window = Measure.gc_metrics ~since:gc0 in
  let peak_rss_mb = Measure.self_hwm_mb () in
  let samples = List.concat_map (fun p -> p.samples) w.passes in
  (* Clock stopped: the reference for every site, then a pass at two
     worker domains over the first sites of the order. *)
  let counts = Layers.counts () in
  let refs = reference ~tracer counts shape sites in
  let parallel =
    pass ~jobs:parallel_jobs shape sites
      (List.filteri (fun k _ -> k < shape.parallel_check) order)
  in
  let mismatched ss =
    List.length
      (List.filter
         (fun s -> match s.digest with Some d -> d <> refs.(s.index).r_digest | None -> true)
         ss)
  in
  let mismatches = mismatched samples and parallel_mismatches = mismatched parallel.samples in
  let errors = List.concat_map (fun p -> p.errors) (parallel :: w.passes) in
  (* Accuracy over the whole sample, in sample order. *)
  let total = Eval_metrics.total (Array.to_list (Array.map (fun r -> r.r_counts) refs)) in
  let accuracy_digest =
    Digest.to_hex
      (Digest.string
         (String.concat ";"
            (Array.to_list
               (Array.mapi
                  (fun i r ->
                    let c = r.r_counts in
                    Printf.sprintf "%s:%d/%d/%d/%d:%s" sites.(i).name c.Eval_metrics.cor
                      c.incor c.fp c.fn (Digest.to_hex r.r_digest))
                  refs))))
  in
  let n = List.length samples in
  let attempted = n + List.length parallel.samples in
  let failed = mismatches + parallel_mismatches in
  (* Rates per CPU-second of this process over the timed passes, services
     started and stopped between them included; latency is the process
     CPU time of a site. Every sample of the run is pooled: each pass
     serves every site once, so each site weighs the same. All are scaled
     to the reference host. *)
  let k = Measure.reference_scale w.reference in
  let records = List.fold_left (fun a s -> a + s.records) 0 samples in
  let site_ms = List.map (fun (s : sample) -> s.cpu_s *. k *. 1e3) samples in
  let p50 = Measure.quantile site_ms 0.5 in
  let tail = Measure.quantile site_ms shape.tail_q in
  let cpu_s = w.cpu_s *. k in
  let e2e =
    [
      ("setup_s", "s", setup_s *. k);
      ("sites_per_s", "1/cpu_s", float_of_int n /. cpu_s);
      ("records_per_s", "1/cpu_s", float_of_int records /. cpu_s);
      ("latency_p50_ms", "cpu_ms", p50.Measure.value);
      ("latency_tail_ms", "cpu_ms", tail.Measure.value);
      ("ttfr_ms", "cpu_ms", p50.Measure.value);
      ("micro_f", "share", Eval_metrics.f_measure total);
      ("peak_rss_mb", "MB", peak_rss_mb);
      ("ok_share", "share", float_of_int (attempted - failed) /. float_of_int (max 1 attempted));
    ]
  in
  let notes =
    [
      ("setup_s", Measure.setup_note times);
      ( "sites_per_s",
        Printf.sprintf "%d sites, %d passes, %.2f CPU-s in %.2f s wall" n
          (List.length w.passes) w.cpu_s w.elapsed_s );
      ("latency_p50_ms", Measure.describe p50);
      ("latency_tail_ms", Measure.describe tail);
      ("ttfr_ms", Measure.describe p50);
      ("micro_f", Printf.sprintf "over the %d sites of the sample" (Array.length sites));
    ]
  in
  let layer =
    if not trace then []
    else begin
      (* In-worker time at two domains over the inline traced time, for
         the same sites. *)
      let inline_s = Hashtbl.create 64 in
      List.iter
        (fun sp ->
          if sp.Measure.name = "core" then
            Hashtbl.replace inline_s sp.Measure.req (sp.Measure.t1 -. sp.Measure.t0))
        (Measure.spans tracer);
      let worker_sum, inline_sum =
        List.fold_left
          (fun (ws, is) s ->
            match Hashtbl.find_opt inline_s sites.(s.index).name with
            | Some t -> (ws +. s.worker_s, is +. t)
            | None -> (ws, is))
          (0., 0.) parallel.samples
      in
      let busy = List.fold_left (fun a s -> a +. s.worker_s) 0. samples in
      let hit_ratio pick =
        let h, m =
          List.fold_left
            (fun (h, m) p ->
              match fst p.stats with
              | None -> (h, m)
              | Some st ->
                let sh = pick st in
                (h + sh.Tabseg_serve.Shard.hits, m + sh.Tabseg_serve.Shard.misses))
            (0, 0) w.passes
        in
        if h + m = 0 then 0. else float_of_int h /. float_of_int (h + m)
      in
      let rejected =
        List.fold_left (fun a p -> a + (snd p.stats).Tabseg_serve.Pool.rejected) 0 w.passes
      in
      Layers.metrics tracer counts
      @ [
          ( "serve.pool_wait_ms",
            "ms",
            Measure.median (List.map (fun s -> (s.client_s -. s.worker_s) *. 1e3) samples) );
          ("serve.busy_share", "share", busy /. w.elapsed_s);
          ("serve.inflation", "ratio", if inline_sum > 0. then worker_sum /. inline_sum else 0.);
          ("serve.result_hit_ratio", "share", hit_ratio (fun s -> s.Cache.results));
          ("serve.template_hit_ratio", "share", hit_ratio (fun s -> s.Cache.templates));
          ("serve.rejected", "count", float_of_int rejected);
          ("failed_share", "share", float_of_int failed /. float_of_int (max 1 attempted));
        ]
      @ gc_window
    end
  in
  let checks =
    [
      ("service responses = inline decomposition", mismatches = 0);
      ( Printf.sprintf "responses at %d domains = inline decomposition" parallel_jobs,
        parallel_mismatches = 0 );
      ("set-ups render the same corpus", inputs_repeat);
      ("no service errors", errors = []);
    ]
  in
  let info =
    [
      ("accuracy_digest", accuracy_digest);
      ("inputs_digest", List.hd digests);
      ("sites_sampled", string_of_int (Array.length sites));
      ("reference", Measure.reference_note w.reference);
      ("wall_sites_per_s", Printf.sprintf "%.4f" (float_of_int n /. w.elapsed_s));
      ( "wall_latency_p50_ms",
        Printf.sprintf "%.4f" (Measure.median (List.map (fun s -> s.client_s *. 1e3) samples)) );
    ]
  in
  { Measure.e2e; notes; layer; checks; info; attempted; failed; trace = tracer }
