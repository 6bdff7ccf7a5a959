(* stream-large: a dozen large corpus sites, 40 list pages of 25 rows
   each, rendered during set-up and fed page by page through
   [Stream.Runner.fold] with the CSP method. Sites are cycled until the
   time is up; each fold is checked unit by unit against
   [Runner.batch_reference]. *)

module Api = Tabseg.Api
module Family = Tabseg_corpus.Family
module Engine = Tabseg_stream.Engine
module Runner = Tabseg_stream.Runner
module Source = Tabseg_stream.Source
module Frame = Tabseg_stream.Frame
module Scorer = Tabseg_eval.Scorer
module Eval_metrics = Tabseg_eval.Metrics

let sites = 12
let pages_per_site = 40
let rows_per_page = 25
let tail_q = 0.99

let config = { Engine.default_config with Engine.method_ = Api.Csp }

type site = {
  name : string;
  pages : Source.page array;  (** crawl order: list page, its details, ... *)
  last_of_unit : int array;  (** page index -> unit it completes, or -1 *)
  truth : string list list array;  (** per unit *)
}

(* As in the corpus workloads, the sites come from a fixed seed, content
   included; the run's seed orders them. *)
let specs =
  Family.sample
    { Family.default_params with Family.sites; seed = Corpus_wl.corpus_seed }
  |> List.map (fun spec ->
         {
           spec with
           Family.sp_rows = pages_per_site * rows_per_page;
           sp_rows_per_page = rows_per_page;
         })

let render spec =
  let generated = Family.generate ~max_pages:pages_per_site spec in
  let pages = ref [] and last = ref [] in
  List.iteri
    (fun u (page : Family.page) ->
      pages := Source.List_page { html = page.Family.list_html; segment = true } :: !pages;
      last := -1 :: !last;
      let n = List.length page.Family.detail_htmls in
      List.iteri
        (fun k html ->
          pages := Source.Detail_page html :: !pages;
          last := (if k = n - 1 then u else -1) :: !last)
        page.Family.detail_htmls)
    generated.Family.pages;
  {
    name = spec.Family.sp_name;
    pages = Array.of_list (List.rev !pages);
    last_of_unit = Array.of_list (List.rev !last);
    truth =
      Array.of_list (List.map (fun p -> p.Family.truth) generated.Family.pages);
  }

(* Every time of a fold is read from this domain's CPU clock: the fold
   runs on the main domain alone, so its CPU time is the work the engine
   does for it. *)
type fold = {
  site : int;
  seconds : float;  (** fold CPU time *)
  wall_s : float;  (** fold wall time *)
  ttfr_s : float;
  unit_latency_s : float list;
  feed_s : float list;
  outcomes : (Api.result, Api.input_error) result list;
  summary : Frame.summary;
  live_words_hwm : int;  (** memory probe folds only *)
}

(* Fold one site. A memory probe fold ([~probe:true]) also samples the
   live major-heap words after every tenth unit with [Gc.stat], which
   runs a full major collection each time: probe folds are never timed. *)
let fold_site ~probe ~on_page (s : site) index =
  let n = Array.length s.pages in
  let units = Array.length s.truth in
  let last_fed = Array.make units nan in
  let pos = ref 0 and handed = ref 0. in
  let feed = ref [] and latency = ref [] in
  let ttfr = ref nan in
  let baseline = if probe then (Gc.stat ()).Gc.live_words else 0 in
  let live_hwm = ref 0 and done_units = ref 0 in
  let clock = Measure.thread_cpu in
  let started = clock () and wall0 = Measure.now () in
  let source () =
    let t = clock () in
    if !pos > 0 then feed := (t -. !handed) :: !feed;
    if !pos >= n then None
    else begin
      let i = !pos in
      if s.last_of_unit.(i) >= 0 then last_fed.(s.last_of_unit.(i)) <- t;
      incr pos;
      on_page ();
      handed := clock ();
      Some s.pages.(i)
    end
  in
  let on_event = function
    | Frame.Record _ ->
      if Float.is_nan !ttfr then ttfr := clock () -. started
    | Frame.Unit_done { unit_index; _ } ->
      latency := (clock () -. last_fed.(unit_index)) :: !latency;
      incr done_units;
      if probe && !done_units mod 10 = 0 then
        live_hwm := max !live_hwm ((Gc.stat ()).Gc.live_words - baseline)
    | Frame.Template_refined _ -> ()
  in
  let folded = Runner.fold ~config ~on_event source in
  {
    site = index;
    seconds = clock () -. started;
    wall_s = Measure.now () -. wall0;
    ttfr_s = !ttfr;
    unit_latency_s = !latency;
    feed_s = !feed;
    outcomes = folded.Runner.outcomes;
    summary = folded.Runner.summary;
    live_words_hwm = !live_hwm;
  }

let run ~seed ~seconds ~trace =
  let tracer = Measure.tracer trace in
  let setup_digest rendered =
    Digest.string
      (Marshal.to_string
         (Array.map (fun s -> (s.name, s.pages)) rendered)
         [ Marshal.No_sharing ])
  in
  (* Set-up, several times; only the last rendering is kept, the others
     must digest the same. *)
  let sites, times, digests =
    Measure.repeat_setup ~digest:setup_digest (fun () ->
        Array.of_list (List.map render specs))
  in
  let inputs_repeat = List.for_all (( = ) (List.hd digests)) digests in
  let setup_s = Measure.median times in
  let order = Array.of_list (Corpus_wl.shuffle ~seed (Array.length sites)) in
  Measure.reset_peak ();
  (* The measured window. Digests, scoring and lexing are done between
     folds with the clock stopped. In a traced run, the library's stage
     events are charged the words this domain allocated since the later
     of the previous event and the last page handed to the engine. *)
  let words_mark = ref 0. in
  let current_words () =
    let minor, _, _ = Gc.counters () in
    minor
  in
  let on_page () = if trace then words_mark := current_words () in
  let current = ref "" in
  let subscription =
    if trace then
      Some
        (Measure.subscribe_stages tracer
           ~req_of:(fun () -> !current)
           ~words:(fun () ->
             let words = current_words () in
             let charged = words -. !words_mark in
             words_mark := words;
             charged))
    else None
  in
  let gc0 = Measure.gc_mark () in
  let speed = Measure.reference () in
  let measured = ref 0. in
  let folds = ref [] in
  let digests = ref [] in
  let first_scores = Hashtbl.create 8 in
  let lex_s = ref 0. in
  let tokens = ref 0 and candidates = ref 0 and solved = ref 0 and relaxed = ref 0 in
  let k = ref 0 in
  (* Whole cycles over the sites, until [seconds] of wall time have
   passed; the cycle under way then is finished, so every site is folded
   equally often. *)
  let n = Array.length sites in
  while !k mod n <> 0 || !measured < seconds do
    let index = order.(!k mod n) in
    incr k;
    let site = sites.(index) in
    current := site.name;
    let f =
      Measure.span tracer ~name:"stream.fold" ~req:site.name (fun () ->
          fold_site ~probe:false ~on_page site index)
    in
    measured := !measured +. f.wall_s;
    Measure.reference_tick speed;
    digests := (index, List.map Runner.outcome_digest f.outcomes) :: !digests;
    if not (Hashtbl.mem first_scores index) then
      Hashtbl.replace first_scores index
        (List.mapi
           (fun u outcome ->
             match outcome with
             | Ok r -> Scorer.score ~truth:site.truth.(u) r.Api.segmentation
             | Error _ ->
               { Eval_metrics.cor = 0; incor = 0; fp = 0;
                 fn = List.length site.truth.(u) })
           f.outcomes);
    if trace then begin
      (* Between folds, clock stopped: the lexer's share of tokenize, and
         the work counts the engine does not report. *)
      let html = function
        | Source.List_page { html; _ } | Source.Detail_page html -> html
      in
      let t0 = Measure.now () in
      Array.iter (fun p -> ignore (Tabseg_html.Lexer.lex (html p))) site.pages;
      lex_s := !lex_s +. (Measure.now () -. t0);
      Array.iter
        (fun p ->
          tokens := !tokens + Array.length (Tabseg_token.Tokenizer.tokenize (html p)))
        site.pages;
      List.iter
        (function
          | Ok r ->
            candidates :=
              !candidates
              + Tabseg_extract.Observation.candidate_count
                  r.Api.prepared.Tabseg.Pipeline.observation;
            solved := !solved + 1;
            if
              List.mem Tabseg.Segmentation.Relaxed_constraints
                r.Api.segmentation.Tabseg.Segmentation.notes
            then relaxed := !relaxed + 1
          | Error _ -> ())
        f.outcomes
    end;
    folds := { f with outcomes = [] } :: !folds
  done;
  Option.iter Tabseg.Instrument.unsubscribe subscription;
  let gc_window = Measure.gc_metrics ~since:gc0 in
  let peak_rss_mb = Measure.self_hwm_mb () in
  let folds = List.rev !folds in
  (* Traced: one untimed memory probe fold of the first site. *)
  let live_words_hwm =
    if trace then
      (fold_site ~probe:true ~on_page:ignore sites.(0) 0).live_words_hwm
    else 0
  in
  (* Stream = batch, unit by unit, for every fold. *)
  let references = Hashtbl.create 8 in
  let reference index =
    match Hashtbl.find_opt references index with
    | Some r -> r
    | None ->
      let r =
        List.map Runner.outcome_digest
          (Runner.batch_reference ~config (Array.to_list sites.(index).pages))
      in
      Hashtbl.replace references index r;
      r
  in
  let attempted = ref 0 and failed = ref 0 in
  List.iter
    (fun (index, ds) ->
      let expected = reference index in
      attempted := !attempted + max (List.length ds) (List.length expected);
      let rec cmp a b =
        match (a, b) with
        | x :: a, y :: b ->
          if x <> y then incr failed;
          cmp a b
        | rest, [] | [], rest -> failed := !failed + List.length rest
      in
      cmp ds expected)
    !digests;
  let units = List.fold_left (fun a f -> a + f.summary.Frame.units) 0 folds in
  let records = List.fold_left (fun a f -> a + f.summary.Frame.records) 0 folds in
  (* Every fold belongs to a whole cycle, so every site weighs the same
     in the pooled percentiles and in the rates. Times are scaled to the
     reference host. *)
  let k = Measure.reference_scale speed in
  let latency_ms =
    List.concat_map (fun f -> List.map (fun x -> x *. k *. 1e3) f.unit_latency_s) folds
  in
  let p50 = Measure.quantile latency_ms 0.5 in
  let tail = Measure.quantile latency_ms tail_q in
  (* Time to first record: each site's median over its folds, then the
     median over the sites. *)
  let ttfr =
    Measure.quantile
      (List.init (Array.length sites) (fun index ->
           Measure.median
             (List.filter_map
                (fun f -> if f.site = index then Some (f.ttfr_s *. k *. 1e3) else None)
                folds)))
      0.5
  in
  let total =
    Eval_metrics.total (List.concat (List.of_seq (Hashtbl.to_seq_values first_scores)))
  in
  let accuracy_digest =
    Digest.to_hex
      (Digest.string
         (String.concat ";"
            (List.map
               (fun i ->
                 String.concat "," (reference i))
               (List.sort_uniq compare (List.map (fun f -> f.site) folds)))))
  in
  let sum time = List.fold_left (fun a f -> a +. time f) 0. folds in
  let cpu_s = sum (fun f -> f.seconds) and wall_s = sum (fun f -> f.wall_s) in
  let scaled_s = cpu_s *. k in
  let e2e =
    [
      ("setup_s", "s", setup_s *. k);
      ("sites_per_s", "1/cpu_s", float_of_int units /. scaled_s);
      ("records_per_s", "1/cpu_s", float_of_int records /. scaled_s);
      ("latency_p50_ms", "cpu_ms", p50.Measure.value);
      ("latency_tail_ms", "cpu_ms", tail.Measure.value);
      ("ttfr_ms", "cpu_ms", ttfr.Measure.value);
      ("micro_f", "share", Eval_metrics.f_measure total);
      ("peak_rss_mb", "MB", peak_rss_mb);
      ( "ok_share",
        "share",
        float_of_int (!attempted - !failed) /. float_of_int (max 1 !attempted) );
    ]
  in
  let notes =
    [
      ("setup_s", Measure.setup_note times);
      ("latency_p50_ms", Measure.describe p50);
      ("latency_tail_ms", Measure.describe tail);
      ("ttfr_ms", Measure.describe ttfr);
      ( "records_per_s",
        Printf.sprintf "%d records, %d units, %d folds, %.2f CPU-s in %.2f s wall" records
          units (List.length folds) cpu_s wall_s );
    ]
  in
  let layer =
    if not trace then []
    else begin
      let ms s = s *. 1e3 in
      let stage name = Measure.total tracer name in
      let tok_s, tok_w, _ = stage "pipeline.tokenize" in
      let tpl_s, tpl_w, tpl_k = stage "pipeline.template" in
      let ext_s, ext_w, _ = stage "pipeline.extract" in
      let csp_s, csp_w, _ = stage "segment.csp" in
      let fold_s, _, _ = stage "stream.fold" in
      let feed = Measure.quantile (List.concat_map (fun f -> List.map (fun x -> x *. 1e3) f.feed_s) folds) 0.99 in
      [
        ("html.lex_ms", "ms", ms !lex_s);
        ("token.self_ms", "ms", ms (Float.max 0. (tok_s -. !lex_s)));
        ("token.alloc_mwords", "Mwords", tok_w /. 1e6);
        ("token.tokens", "count", float_of_int !tokens);
        ("template.self_ms", "ms", ms tpl_s);
        ("template.alloc_mwords", "Mwords", tpl_w /. 1e6);
        ("template.inductions", "count", float_of_int tpl_k);
        ("extract.self_ms", "ms", ms ext_s);
        ("extract.alloc_mwords", "Mwords", ext_w /. 1e6);
        ("extract.candidates", "count", float_of_int !candidates);
        ("csp.self_ms", "ms", ms csp_s);
        ( "csp.relaxed_share",
          "share",
          float_of_int !relaxed /. float_of_int (max 1 !solved) );
        ("csp.alloc_mwords", "Mwords", csp_w /. 1e6);
        ("stream.self_ms", "ms", ms (fold_s -. tok_s -. tpl_s -. ext_s -. csp_s));
        ("stream.feed_ms_tail", "ms", feed.Measure.value);
        ( "stream.live_tokens_hwm",
          "count",
          float_of_int
            (List.fold_left (fun a f -> max a f.summary.Frame.live_tokens_hwm) 0 folds) );
        ("stream.live_mwords_hwm", "Mwords", float_of_int live_words_hwm /. 1e6);
        ( "failed_share",
          "share",
          float_of_int !failed /. float_of_int (max 1 !attempted) );
      ]
      @ gc_window
    end
  in
  {
    Measure.e2e;
    notes;
    layer;
    checks =
      [
        ("every stream unit = batch_reference", !failed = 0);
        ("set-ups render the same sites", inputs_repeat);
      ];
    info =
      [
        ("accuracy_digest", accuracy_digest);
        ("units", string_of_int units);
        ("reference", Measure.reference_note speed);
        ("folds", string_of_int (List.length folds));
        ( "wall_records_per_s",
          Printf.sprintf "%.4f" (float_of_int records /. wall_s) );
      ]
      @ (if trace then
           (* The split this workload was chosen for: today the template
              is induced again for every unit. A change that shares it
              moves this figure, not the records. *)
           let _, _, k = Measure.total tracer "pipeline.template" in
           [ ("template_inductions_per_unit", Printf.sprintf "%d / %d" k units) ]
         else []);
    attempted = !attempted;
    failed = !failed;
    trace = tracer;
  }
