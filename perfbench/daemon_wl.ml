(* daemon-zipf: a live daemon on a Unix socket, fronting a gateway of two
   worker processes whose services share a result cache and a persistent
   store, all on the CSP method. The daemon is a process of its own,
   started from this program's executable ([tabseg_perf --serve-daemon]),
   so its memory is its own. This process is the client: it holds two
   connections and sends a fixed sequence of requests, one at a time,
   alternating between them. Sites are drawn Zipf(1) from a corpus
   universe, and every tenth request asks for a site never asked for
   before. The store starts warm with the universe's most popular sites,
   as after a restart, so store reads, result-memo hits and first-time
   misses that compute and write all run side by side.

   One request is in flight at a time so that every CPU cycle the client,
   the daemon and its workers spend while it is out is that request's:
   its latency is the CPU time it cost across the three processes, read
   from the kernel's per-thread accounting. Wall-clock latency through
   three processes on a shared host is set by the neighbours, not the
   server; it is printed beside. The client speaks [Protocol] frames
   itself rather than through [Client] or [Loadgen], to time the codec
   on its side. *)

module Api = Tabseg.Api
module Protocol = Tabseg_daemon.Protocol
module Daemon = Tabseg_daemon.Daemon
module Client = Tabseg_daemon.Client
module Wire = Tabseg_gateway.Wire
module Gateway = Tabseg_gateway.Gateway
module Service = Tabseg_serve.Service
module Cache = Tabseg_serve.Cache
module Store = Tabseg_store.Store
module Family = Tabseg_corpus.Family
module Harness = Tabseg_corpus.Harness
module Prng = Tabseg_sitegen.Prng
module Scorer = Tabseg_eval.Scorer
module Eval_metrics = Tabseg_eval.Metrics

let universe = 1000

(* Up to 10 rows per list page: a first-time miss computes for a few
   milliseconds, so the edge (socket, codecs, dispatch, cache, store)
   carries a large share of the time. *)
let rows_per_page = 10
let warm_sites = 200 (* the most popular ranks, persisted before start *)
let zipf_exponent = 1.0
let connections = 2
let fresh_every = 10
let tail_q = 0.99

(* The run is a fixed number of requests, 200 per second of --seconds:
   the mix of hits and misses changes as the caches fill, so a figure
   must always rest on the same sequence, however fast the host is. A
   short warm-up precedes it, checked but not reported. *)
let warmup = 50
let requests ~seconds = int_of_float (200. *. seconds)
let reserve ~seconds = ((warmup + requests ~seconds) / fresh_every) + 1

let work_dir = ".perfbench/daemon"
let socket_path () = Printf.sprintf "%s/d%d.sock" work_dir (Unix.getpid ())
let store_dir () = Printf.sprintf "%s/s%d.tabstore" work_dir (Unix.getpid ())

let rec remove_tree path =
  match Sys.is_directory path with
  | exception Sys_error _ -> ()
  | true ->
    Array.iter
      (fun entry -> remove_tree (Filename.concat path entry))
      (Sys.readdir path);
    Sys.rmdir path
  | false -> Sys.remove path

let dir_bytes path =
  match Sys.readdir path with
  | exception Sys_error _ -> 0
  | entries ->
    Array.fold_left
      (fun acc entry ->
        match Unix.stat (Filename.concat path entry) with
        | { Unix.st_kind = Unix.S_REG; st_size; _ } -> acc + st_size
        | _ -> acc
        | exception Unix.Unix_error _ -> acc)
      0 entries

let service_config ~store =
  {
    Service.default_config with
    Service.jobs = 1;
    method_ = Api.Csp;
    cache = Some Cache.default_config;
    store_dir = Some store;
  }

let daemon_config ~socket ~store =
  {
    Daemon.default_config with
    Daemon.listen = Protocol.Unix_socket socket;
    gateway =
      { Gateway.default_config with Gateway.procs = 2; service = service_config ~store };
  }

(* The daemon process's whole life: bind, serve until SIGTERM, drain. *)
let serve_daemon ~socket ~store =
  Daemon.serve (Daemon.create ~config:(daemon_config ~socket ~store) ())

(* ------------------------------ connections --------------------------- *)

type conn = {
  fd : Unix.file_descr;
  mutable inbuf : string;
  mutable off : int;
  mutable next_seq : int;
}

exception Protocol_error of string

let write_all fd s =
  let b = Bytes.unsafe_of_string s in
  let rec go off =
    if off < Bytes.length b then
      match Unix.write fd b off (Bytes.length b - off) with
      | n -> go (off + n)
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> go off
  in
  go 0

let chunk = Bytes.create 262144

(* The next frame's payload, reading as much as it takes. *)
let rec next_frame c =
  match Wire.decode_frame ~off:c.off c.inbuf with
  | `Frame (payload, next) ->
    c.off <- next;
    if c.off = String.length c.inbuf then begin
      c.inbuf <- "";
      c.off <- 0
    end;
    payload
  | `Error e -> raise (Protocol_error (Wire.decode_error_message e))
  | `Need_more -> (
    match Unix.read c.fd chunk 0 (Bytes.length chunk) with
    | 0 -> raise (Protocol_error "daemon closed the connection")
    | n ->
      c.inbuf <-
        String.sub c.inbuf c.off (String.length c.inbuf - c.off)
        ^ Bytes.sub_string chunk 0 n;
      c.off <- 0;
      next_frame c
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> next_frame c)

let connect path =
  let fd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  (try Unix.connect fd (Unix.ADDR_UNIX path)
   with e ->
     Unix.close fd;
     raise e);
  let c = { fd; inbuf = ""; off = 0; next_seq = 0 } in
  write_all fd
    (Protocol.encode (Protocol.Hello { client = "perfbench"; token = None }));
  (match Protocol.decode_payload (next_frame c) with
   | Ok (Protocol.Welcome _) -> ()
   | Ok _ -> raise (Protocol_error "expected Welcome")
   | Error e -> raise (Protocol_error e));
  c

(* ------------------------------- set-up ------------------------------- *)

type setup = {
  pid : int;  (** the daemon *)
  conns : conn array;
  inputs : Tabseg.Pipeline.input array;
  names : string array;
  truth : string list list array;
  store_bytes0 : int;
  store_entries0 : int;
}

(* Sites [lo, hi) of the universe followed by its reserve. *)
let site_inputs lo hi =
  Family.sample
    { Family.default_params with Family.sites = hi; seed = Corpus_wl.corpus_seed;
      min_rows = 60; max_rows_per_page = rows_per_page }
  |> List.filteri (fun i _ -> i >= lo && i < hi)
  |> Harness.site_inputs ~siblings:3

let stop_daemon pid =
  Daemon.stop { Daemon.pid; address = Protocol.Unix_socket (socket_path ()) }

(* Start the daemon from this executable and wait until it accepts a
   connection (at most 20 s). *)
let launch_daemon ~socket ~store =
  let pid =
    Unix.create_process Sys.executable_name
      [| Sys.executable_name; "--serve-daemon"; socket; store |]
      Unix.stdin Unix.stderr Unix.stderr
  in
  let give_up = Measure.now () +. 20. in
  let rec wait () =
    match Unix.waitpid [ Unix.WNOHANG ] pid with
    | p, _ when p = pid -> failwith "the daemon exited during start-up"
    | _ -> (
      match connect socket with
      | c -> c
      | exception (Unix.Unix_error _ | Protocol_error _) ->
        if Measure.now () > give_up then begin
          ignore (stop_daemon pid);
          failwith "the daemon did not start listening within 20 s"
        end;
        Unix.sleepf 0.02;
        wait ())
  in
  (pid, wait ())

let setup ~seconds =
  let store = store_dir () and socket = socket_path () in
  remove_tree store;
  (try Sys.remove socket with Sys_error _ -> ());
  (* The popular head, computed and persisted in-process before the
     daemon starts: its workers find those sites in the store. *)
  let head = site_inputs 0 warm_sites in
  let service = Service.create ~config:(service_config ~store) () in
  List.iter
    (fun (name, input, _) ->
      ignore (Service.segment_one service { Service.id = name; site = name; input }))
    head;
  Service.shutdown service;
  let entries0 =
    let s = Store.open_store ~readonly:true store in
    let n = (Store.stats s).Store.entries in
    Store.close s;
    n
  in
  let tail = site_inputs warm_sites (universe + reserve ~seconds) in
  let all = Array.of_list (head @ tail) in
  let pid, first = launch_daemon ~socket ~store in
  let conns =
    try Array.init connections (fun i -> if i = 0 then first else connect socket)
    with e ->
      ignore (stop_daemon pid);
      raise e
  in
  {
    pid;
    conns;
    inputs = Array.map (fun (_, input, _) -> input) all;
    names = Array.map (fun (name, _, _) -> name) all;
    truth = Array.map (fun (_, _, truth) -> truth) all;
    store_bytes0 = dir_bytes store;
    store_entries0 = entries0;
  }

let teardown s =
  Array.iter (fun c -> try Unix.close c.fd with Unix.Unix_error _ -> ()) s.conns;
  stop_daemon s.pid

(* ------------------------------ requests ------------------------------ *)

type reply_sample = {
  site : int;
  ok : bool;
  hit : bool;
  digest : Digest.t;  (** rendering of the segmentation ("" on error) *)
  records : int;
  first : bool;  (** the first reply to this site in the run *)
  cpu_s : float;  (** client + daemon + workers, while it was out *)
  wall_s : float;
  codec_s : float;  (** client encode + decode, its CPU time *)
}

(* CPU seconds of the daemon and its workers. *)
let server_cpu pids = List.fold_left (fun a pid -> a +. Measure.pid_cpu pid) 0. pids

(* One request, alone in flight, and its reply. *)
let roundtrip s ~pids ~seen c site =
  let seq = c.next_seq in
  c.next_seq <- seq + 1;
  let request = { Service.id = string_of_int seq; site = s.names.(site); input = s.inputs.(site) } in
  let server0 = server_cpu pids in
  let wall0 = Measure.now () in
  let cpu0 = Measure.thread_cpu () in
  let frame = Protocol.encode (Protocol.Submit { seq; request; fault = Wire.No_fault }) in
  let encoded = Measure.thread_cpu () in
  write_all c.fd frame;
  let payload = next_frame c in
  let received = Measure.thread_cpu () in
  let decoded = Protocol.decode_payload payload in
  let cpu1 = Measure.thread_cpu () in
  let wall1 = Measure.now () in
  let server1 = server_cpu pids in
  let cpu_s = cpu1 -. cpu0 +. (server1 -. server0) in
  let codec_s = encoded -. cpu0 +. (cpu1 -. received) in
  match decoded with
  | Ok (Protocol.Reply { seq = got; reply }) -> (
    if got <> seq then raise (Protocol_error "reply out of order");
    let base = { site; ok = false; hit = false; digest = ""; records = 0; first = false;
                 cpu_s; wall_s = wall1 -. wall0; codec_s } in
    match reply.Protocol.outcome with
    | Ok result ->
      let seg = result.Api.segmentation in
      let first = not (Hashtbl.mem seen site) in
      Hashtbl.replace seen site ();
      { base with ok = true; hit = reply.Protocol.cache_hit; first;
                  digest = Layers.segmentation_digest seg;
                  records = List.length seg.Tabseg.Segmentation.records }
    | Error _ -> base)
  | Ok _ -> raise (Protocol_error "unexpected frame")
  | Error e -> raise (Protocol_error e)

(* ------------------------------ the run ------------------------------- *)

let run ~seed ~seconds ~trace =
  let tracer = Measure.tracer trace in
  (try Unix.mkdir ".perfbench" 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  (try Unix.mkdir work_dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  let stop_codes = ref [] in
  let s, times, _ =
    Measure.repeat_setup
      ~discard:(fun s -> stop_codes := teardown s :: !stop_codes)
      ~digest:(fun _ -> "")
      (fun () -> setup ~seconds)
  in
  (* The daemon is stopped exactly once, also when the run raises. *)
  let stop_code = ref None in
  let stop () =
    match !stop_code with
    | Some code -> code
    | None ->
      let code = teardown s in
      stop_code := Some code;
      code
  in
  Fun.protect ~finally:(fun () -> ignore (stop ())) @@ fun () ->
  let setup_s = Measure.median times in
  let pids = s.pid :: Measure.children s.pid in
  (* The sites are fixed, content included, as in the corpus workloads;
     the seed draws the request sequence, which rank is asked for when. *)
  let cdf = Prng.zipf_cdf ~n:universe ~exponent:zipf_exponent in
  let rng = Random.State.make [| seed |] in
  let fresh = ref universe in
  let draw k =
    if k mod fresh_every = fresh_every - 1 then begin
      incr fresh;
      !fresh - 1
    end
    else Prng.zipf_index cdf (Random.State.float rng 1.0)
  in
  let seen = Hashtbl.create 1024 in
  let sequence = List.init (warmup + requests ~seconds) draw in
  let ask k site = roundtrip s ~pids ~seen s.conns.(k mod connections) site in
  let warm = List.mapi ask (List.filteri (fun k _ -> k < warmup) sequence) in
  let gc0 = Measure.gc_mark () in
  let reference = Measure.reference () in
  let cpu0 = Measure.thread_cpu () and wall0 = Measure.now () in
  let replies =
    List.filteri (fun k _ -> k >= warmup) sequence
    |> List.mapi (fun k site ->
           let r = ask (warmup + k) site in
           Measure.reference_tick reference;
           r)
  in
  let loop_wall = Measure.now () -. wall0 in
  let client_share =
    (Measure.thread_cpu () -. cpu0 -. reference.Measure.spent_s) /. loop_wall
  in
  let gc_window = Measure.gc_metrics ~since:gc0 in
  (* Out-of-band figures, then stop. *)
  let stats =
    match Client.connect ~client:"perfbench-stats" (Protocol.Unix_socket (socket_path ())) with
    | Ok c ->
      let r = Client.stats c in
      Client.close c;
      (match r with Ok l -> l | Error _ -> [])
    | Error _ -> []
  in
  let stat name = Option.value ~default:nan (List.assoc_opt name stats) in
  let daemon_rss =
    List.fold_left (fun a pid -> a +. Measure.vm_hwm_mb (string_of_int pid)) 0. pids
  in
  let stop_code = stop () in
  let store = store_dir () in
  let store_bytes1 = dir_bytes store in
  let store_entries1 =
    (* Opening as the writer folds the readers' offload queues. *)
    let h = Store.open_store store in
    let n = (Store.stats h).Store.entries in
    Store.close h;
    remove_tree store;
    n
  in
  (* Correctness: every Ok reply = the in-process rendering, computed for
     every site replied to and every scored site. Accuracy is scored on
     the whole universe, whatever was asked. *)
  let all_replies = warm @ replies in
  let counts = Layers.counts () in
  let expected = Hashtbl.create 1024 and scores = Hashtbl.create 256 in
  let replied = List.sort_uniq compare (List.map (fun r -> r.site) all_replies) in
  let scored_sites = List.init universe Fun.id in
  List.iter
    (fun site ->
      let outcome =
        Layers.segment tracer counts ~req:s.names.(site) ~method_:Api.Csp s.inputs.(site)
      in
      (match outcome with
       | Ok r -> Hashtbl.replace expected site (Layers.segmentation_digest r.Api.segmentation)
       | Error _ -> ());
      if site < universe then
        Hashtbl.replace scores site
          (match outcome with
           | Ok r -> Scorer.score ~truth:s.truth.(site) r.Api.segmentation
           | Error _ ->
             { Eval_metrics.cor = 0; incor = 0; fp = 0; fn = List.length s.truth.(site) }))
    (List.sort_uniq compare (replied @ scored_sites));
  let mismatches =
    List.length
      (List.filter
         (fun r -> r.ok && Hashtbl.find_opt expected r.site <> Some r.digest)
         all_replies)
  in
  let errors = List.length (List.filter (fun r -> not r.ok) all_replies) in
  let attempted = List.length all_replies in
  let failed = mismatches + errors in
  (* End-to-end figures, over the measured requests, scaled to the
     reference host. *)
  let k = Measure.reference_scale reference in
  let n = List.length replies in
  let cpu_total = List.fold_left (fun a r -> a +. r.cpu_s) 0. replies in
  let records = List.fold_left (fun a r -> a + r.records) 0 replies in
  let cpu_ms = List.map (fun r -> r.cpu_s *. k *. 1e3) replies in
  let p50 = Measure.quantile cpu_ms 0.5 in
  let tail = Measure.quantile cpu_ms tail_q in
  let scored_counts = List.map (fun site -> (site, Hashtbl.find scores site)) scored_sites in
  let total = Eval_metrics.total (List.map snd scored_counts) in
  let accuracy_digest =
    Digest.to_hex
      (Digest.string
         (String.concat ";"
            (List.map
               (fun (site, (c : Eval_metrics.counts)) ->
                 Printf.sprintf "%s:%d/%d/%d/%d:%s" s.names.(site) c.cor c.incor c.fp
                   c.fn
                   (match Hashtbl.find_opt expected site with
                    | Some d -> Digest.to_hex d
                    | None -> "error"))
               scored_counts)))
  in
  let e2e =
    [
      ("setup_s", "s", setup_s *. k);
      ("sites_per_s", "1/cpu_s", float_of_int n /. (cpu_total *. k));
      ("records_per_s", "1/cpu_s", float_of_int records /. (cpu_total *. k));
      ("latency_p50_ms", "cpu_ms", p50.Measure.value);
      ("latency_tail_ms", "cpu_ms", tail.Measure.value);
      ("ttfr_ms", "cpu_ms", p50.Measure.value);
      ("micro_f", "share", Eval_metrics.f_measure total);
      ("peak_rss_mb", "MB", daemon_rss);
      ("ok_share", "share", float_of_int (attempted - failed) /. float_of_int (max 1 attempted));
    ]
  in
  let hits = List.filter (fun r -> r.hit) replies in
  let notes =
    [
      ("setup_s", Measure.setup_note times);
      ( "sites_per_s",
        Printf.sprintf "%d requests, %.2f CPU-s across 3 processes, %.2f s wall" n cpu_total
          loop_wall );
      ("latency_p50_ms", Measure.describe p50);
      ("latency_tail_ms", Measure.describe tail);
      ("ttfr_ms", Measure.describe p50);
      ("micro_f", Printf.sprintf "over the %d sites of the universe" universe);
    ]
  in
  let layer =
    if not trace then []
    else begin
      let firsts = List.filter (fun r -> r.first) all_replies in
      let store_hits = List.length (List.filter (fun r -> r.hit) firsts) in
      let misses = List.length (List.filter (fun r -> r.ok && not r.hit) all_replies) in
      (* Wire: the master<->worker codec on a sample of this run's
         requests. *)
      let wire_us =
        Measure.median
          (List.filteri (fun k _ -> k mod 50 = 0) replies
           |> List.mapi (fun seq r ->
                  let request =
                    { Service.id = string_of_int seq; site = s.names.(r.site);
                      input = s.inputs.(r.site) }
                  in
                  let t0 = Measure.thread_cpu () in
                  let frame = Wire.encode (Wire.Request { seq; request; fault = Wire.No_fault }) in
                  (match Wire.decode frame with `Msg _ -> () | _ -> ());
                  (Measure.thread_cpu () -. t0) *. 1e6))
      in
      (* The edge: the wall round trip of cache hits, less an in-process
         [Service.segment_one] of the same request that hits its cache. *)
      let probe = List.filteri (fun k _ -> k < 100) hits in
      let inproc =
        let svc = Service.create ~config:{ (service_config ~store) with Service.store_dir = None } () in
        let times =
          List.map
            (fun r ->
              let req = { Service.id = "p"; site = s.names.(r.site); input = s.inputs.(r.site) } in
              ignore (Service.segment_one svc req);
              let t0 = Measure.now () in
              ignore (Service.segment_one svc req);
              Measure.now () -. t0)
            probe
        in
        Service.shutdown svc;
        times
      in
      Layers.metrics tracer counts
      @ [
          ( "serve.result_hit_ratio",
            "share",
            float_of_int (List.length hits) /. float_of_int (max 1 n) );
          ("store.hits", "count", float_of_int store_hits);
          ("store.puts", "count", float_of_int (store_entries1 - s.store_entries0));
          ("store.write_kb", "KB", float_of_int (store_bytes1 - s.store_bytes0) /. 1024.);
          ( "store.hit_ratio",
            "share",
            float_of_int store_hits /. float_of_int (max 1 (store_hits + misses)) );
          ("gateway.wire_us", "us", wire_us);
          ("gateway.worker_restarts", "count", stat "gateway.worker_restarts");
          ( "daemon.codec_us",
            "us",
            Measure.median (List.map (fun r -> r.codec_s *. 1e6) replies) );
          ( "daemon.edge_ms",
            "ms",
            (Measure.median (List.map (fun r -> r.wall_s) probe) -. Measure.median inproc)
            *. 1e3 );
          ("daemon.protocol_errors", "count", stat "daemon.protocol_errors");
          ("loadgen.cpu_share", "share", client_share);
          ("loadgen.offered", "count", float_of_int attempted);
          ("failed_share", "share", float_of_int failed /. float_of_int (max 1 attempted));
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
        ("daemon replies = in-process Api.segment", mismatches = 0);
        ("every request answered without error", errors = 0);
        ("daemon drained and exited 0", stop_code = 0 && List.for_all (( = ) 0) !stop_codes);
        ("no worker restarts", stat "gateway.worker_restarts" = 0.);
      ];
    info =
      [
        ("accuracy_digest", accuracy_digest);
        ("fresh_sites", string_of_int (!fresh - universe));
        ("distinct_sites", string_of_int (List.length replied));
        ("cache_hit_replies", string_of_int (List.length hits));
        ("reference", Measure.reference_note reference);
        ("wall_sites_per_s", Printf.sprintf "%.4f" (float_of_int n /. loop_wall));
        ( "wall_latency_p50_ms",
          Printf.sprintf "%.4f" (Measure.median (List.map (fun r -> r.wall_s *. 1e3) replies)) );
      ];
    attempted;
    failed;
    trace = tracer;
  }
