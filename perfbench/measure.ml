(* The benchmark's measurement kernel: wall and CPU clocks, nearest-rank
   quantiles over raw samples, process memory, the span recorder used by
   traced runs, and the one result line every workload ends with. *)

let now = Unix.gettimeofday

(* ------------------------------ CPU clocks ---------------------------- *)

(* Every end-to-end time is read from CPU clocks: the kernel's run-time
   accounting of the threads that do the work. They do not advance while
   a thread waits for a CPU or sleeps, nor while the hypervisor gives its
   virtual CPU to another tenant ("steal"), so a figure does not depend
   on what else the machine runs. The wall-clock figures are printed
   beside them. *)

(* CPU seconds of the calling thread (an OCaml domain is one thread). *)
external thread_cpu : unit -> float = "perfbench_thread_cpu"

(* CPU seconds of this process, all its threads. *)
external process_cpu : unit -> float = "perfbench_process_cpu"

(* CPU seconds of another process, all its threads, from the first field
   of /proc/PID/task/TID/schedstat (nanoseconds on a CPU). *)
let pid_cpu pid =
  let dir = Printf.sprintf "/proc/%d/task" pid in
  match Sys.readdir dir with
  | exception Sys_error _ -> 0.
  | tasks ->
    Array.fold_left
      (fun acc task ->
        let path = Filename.concat (Filename.concat dir task) "schedstat" in
        match open_in path with
        | exception Sys_error _ -> acc
        | ic ->
          let ns =
            Fun.protect
              ~finally:(fun () -> close_in_noerr ic)
              (fun () -> try Scanf.sscanf (input_line ic) "%f" Fun.id with _ -> 0.)
          in
          acc +. (ns *. 1e-9))
      0. tasks

(* ---------------------------- reference speed ------------------------- *)

(* CPU time is not a fixed measure of work on a shared host: how much a
   CPU-second gets done drifts by ±15% over minutes, with whatever the
   neighbours run on the same cores and caches. So every run also times
   a fixed reference kernel, about every [reference_every_s] of its timed
   window, and scales its end-to-end times to a host on which the kernel
   takes [reference_nominal_s] (about what it takes on a 2.1 GHz Xeon
   vCPU): a time t reads t * nominal / (the run's median kernel time).
   The kernel is not tabseg code, so no change to the program moves it.
   It renders HTML-like rows, splits them into tokens and counts and
   sorts them: the kind of work the pipeline does. *)
let reference_nominal_s = 0.020
let reference_every_s = 0.4
let reference_sink = ref 0

let reference_kernel () =
  let t0 = thread_cpu () in
  let b = Buffer.create 65536 in
  for i = 0 to 2999 do
    Printf.bprintf b "<tr class=\"row%d\"><td>%s</td><td>%d</td></tr>\n" (i mod 7)
      (String.make (3 + (i mod 11)) (Char.chr (97 + (i mod 26))))
      (i * 37)
  done;
  let s = Buffer.contents b in
  let tokens = ref [] and start = ref 0 in
  String.iteri
    (fun i c ->
      if c = '<' || c = '>' || c = ' ' || c = '\n' then begin
        if i > !start then tokens := String.sub s !start (i - !start) :: !tokens;
        start := i + 1
      end)
    s;
  let counts = Hashtbl.create 4096 in
  List.iter
    (fun t ->
      Hashtbl.replace counts t (1 + Option.value ~default:0 (Hashtbl.find_opt counts t)))
    !tokens;
  let sorted = Array.of_list !tokens in
  Array.sort compare sorted;
  reference_sink := !reference_sink + Hashtbl.length counts + Array.length sorted;
  thread_cpu () -. t0

type reference = {
  mutable samples : float list;  (** kernel CPU seconds *)
  mutable spent_s : float;  (** process CPU the kernel took, in all *)
  mutable next : float;  (** wall time of the next sample *)
}

let reference () = { samples = []; spent_s = 0.; next = 0. }

(* Time the kernel when [reference_every_s] of wall time have passed
   since the last sample. Called between work items, never inside one. *)
let reference_tick r =
  if now () >= r.next then begin
    let t = reference_kernel () in
    r.samples <- t :: r.samples;
    r.spent_s <- r.spent_s +. t;
    r.next <- now () +. reference_every_s
  end

(* ------------------------------ quantiles ----------------------------- *)

(* Nearest rank: the smallest sample with at least [q] of the sample at
   or below it. Returns the value and its 1-based rank. *)
let nearest_rank sorted q =
  let n = Array.length sorted in
  if n = 0 then (nan, 0)
  else
    let rank = int_of_float (ceil ((q *. float_of_int n) -. 1e-9)) in
    let rank = max 1 (min n rank) in
    (sorted.(rank - 1), rank)

let sorted_of_list samples =
  let sorted = Array.of_list samples in
  Array.sort compare sorted;
  sorted

type quantile = {
  q : float;
  value : float;
  rank : int;
  n : int;  (** sample count *)
}

let quantile samples q =
  let sorted = sorted_of_list samples in
  let value, rank = nearest_rank sorted q in
  { q; value; rank; n = Array.length sorted }

let median samples = (quantile samples 0.5).value

(* Samples strictly beyond the rank a tail quantile reads: the tail is
   only trusted with at least ten of them. *)
let beyond t = t.n - t.rank

let describe t =
  Printf.sprintf "p%g of n=%d (rank %d, %d beyond)" (100. *. t.q) t.n t.rank
    (beyond t)

(* The factor that scales this run's CPU times to the reference host. *)
let reference_scale r =
  match r.samples with [] -> 1. | samples -> reference_nominal_s /. median samples

let reference_note r =
  Printf.sprintf "reference kernel: median %.3f ms of %d samples, times scaled by %.4f"
    (median r.samples *. 1e3) (List.length r.samples) (reference_scale r)

(* ------------------------------- set-up ------------------------------- *)

(* Set-up is timed several times and reported as the median: at least
   three times, then again while the set-ups so far took under a second
   in all, at most fifteen times, so that a quick set-up rests on enough
   samples to be steady. A set-up is timed on this process's CPU clock.
   [f] builds a set-up; every one but the last is handed to [discard].
   Returns the last set-up, every time, and every set-up's [digest]
   (which must all agree). *)
let repeat_setup ?(discard = ignore) ~digest f =
  let rec go times digests =
    let t0 = process_cpu () in
    let x = f () in
    let times = (process_cpu () -. t0) :: times in
    let digests = digest x :: digests in
    let k = List.length times in
    if k >= 15 || (k >= 3 && List.fold_left ( +. ) 0. times >= 1.) then
      (x, times, digests)
    else begin
      discard x;
      go times digests
    end
  in
  go [] []

let setup_note times =
  Printf.sprintf "median of %d set-ups: %s" (List.length times)
    (String.concat " " (List.rev_map (Printf.sprintf "%.3f") times))

(* ------------------------------- memory ------------------------------- *)

(* VmHWM of a process in MB (0 when /proc does not report it). *)
let vm_hwm_mb pid =
  let path = Printf.sprintf "/proc/%s/status" pid in
  match open_in path with
  | exception Sys_error _ -> 0.
  | ic ->
    let rec scan () =
      match input_line ic with
      | exception End_of_file -> 0.
      | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
        Scanf.sscanf
          (String.sub line 6 (String.length line - 6))
          " %d" (fun kb -> float_of_int kb /. 1024.)
      | _ -> scan ()
    in
    Fun.protect ~finally:(fun () -> close_in_noerr ic) scan

let self_hwm_mb () = vm_hwm_mb "self"

(* Start the peak over once set-up is done: collect set-up's garbage,
   return it to the system, and reset VmHWM to the current RSS (writing
   5 to clear_refs). The peak then covers the inputs the workload holds
   and the work it does, not the renderings set-up threw away. Where
   clear_refs cannot be written the peak simply covers set-up too. *)
let reset_peak () =
  Gc.compact ();
  try
    let oc = open_out "/proc/self/clear_refs" in
    Fun.protect
      ~finally:(fun () -> close_out_noerr oc)
      (fun () -> output_string oc "5")
  with Sys_error _ -> ()

(* Direct children of [pid], from /proc/PID/task/*/children. *)
let children pid =
  let dir = Printf.sprintf "/proc/%d/task" pid in
  match Sys.readdir dir with
  | exception Sys_error _ -> []
  | tasks ->
    Array.to_list tasks
    |> List.concat_map (fun task ->
           let path = Filename.concat (Filename.concat dir task) "children" in
           match open_in path with
           | exception Sys_error _ -> []
           | ic ->
             let line =
               Fun.protect
                 ~finally:(fun () -> close_in_noerr ic)
                 (fun () -> try input_line ic with End_of_file -> "")
             in
             String.split_on_char ' ' line
             |> List.filter_map int_of_string_opt)

(* ------------------------------- GC deltas ---------------------------- *)

type gc_mark = {
  g_minor_words : float;
  g_minor : int;
  g_major : int;
}

let gc_mark () =
  let s = Gc.quick_stat () in
  {
    g_minor_words = s.Gc.minor_words;
    g_minor = s.Gc.minor_collections;
    g_major = s.Gc.major_collections;
  }

(* The gc.* layer metrics over a window, for the whole process. *)
let gc_metrics ~since =
  let s = Gc.quick_stat () in
  [
    ("gc.minor_collections", "count", float_of_int (s.Gc.minor_collections - since.g_minor));
    ("gc.major_collections", "count", float_of_int (s.Gc.major_collections - since.g_major));
    ("gc.minor_mwords", "Mwords", (s.Gc.minor_words -. since.g_minor_words) /. 1e6);
    ( "gc.top_heap_mb",
      "MB",
      float_of_int (s.Gc.top_heap_words * (Sys.word_size / 8)) /. 1048576. );
  ]

(* -------------------------------- spans ------------------------------- *)

type span = {
  sid : int;
  name : string;
  req : string;  (** request id: the site, unit or request it served *)
  parent : int;  (** enclosing span's [sid]; -1 at top level *)
  domain : int;
  t0 : float;
  t1 : float;
  minor_words : float;  (** allocated by this domain during the span *)
  major_words : float;
  minor_gcs : int;  (** process-wide minor collections during the span *)
}

type tracer = {
  on : bool;
  epoch : float;
  lock : Mutex.t;
  mutable spans : span list;
  mutable next : int;
  mutable stack : int list;  (** open spans of the main domain *)
}

let tracer on =
  {
    on;
    epoch = now ();
    lock = Mutex.create ();
    spans = [];
    next = 0;
    stack = [];
  }

let record tr make =
  Mutex.lock tr.lock;
  let sid = tr.next in
  tr.next <- sid + 1;
  tr.spans <- make sid :: tr.spans;
  Mutex.unlock tr.lock;
  sid

(* Time [f] as a span of the main domain; with tracing off, just [f ()]. *)
let span tr ~name ~req f =
  if not tr.on then f ()
  else begin
    let parent = match tr.stack with p :: _ -> p | [] -> -1 in
    Mutex.lock tr.lock;
    let sid = tr.next in
    tr.next <- sid + 1;
    tr.stack <- sid :: tr.stack;
    Mutex.unlock tr.lock;
    let minor0, _, major0 = Gc.counters () in
    let gcs0 = (Gc.quick_stat ()).Gc.minor_collections in
    let t0 = now () in
    let finish () =
      let t1 = now () in
      let minor1, _, major1 = Gc.counters () in
      let gcs1 = (Gc.quick_stat ()).Gc.minor_collections in
      let s =
        {
          sid;
          name;
          req;
          parent;
          domain = (Domain.self () :> int);
          t0;
          t1;
          minor_words = minor1 -. minor0;
          major_words = major1 -. major0;
          minor_gcs = gcs1 - gcs0;
        }
      in
      Mutex.lock tr.lock;
      tr.spans <- s :: tr.spans;
      tr.stack <- (match tr.stack with _ :: rest -> rest | [] -> []);
      Mutex.unlock tr.lock
    in
    Fun.protect ~finally:finish f
  end

(* Stage events the library emits through [Tabseg.Instrument] (on any
   domain) become spans too. An event only carries its duration, so its
   start is reconstructed as end minus duration. Its allocation is
   unknown ([nan]) unless [words] charges it some, from the event's own
   domain. *)
let subscribe_stages ?(words = fun () -> nan) tr ~req_of =
  Tabseg.Instrument.subscribe (fun (e : Tabseg.Instrument.event) ->
      let t1 = now () in
      let charged = words () in
      ignore
        (record tr (fun sid ->
             {
               sid;
               name = e.Tabseg.Instrument.stage;
               req = req_of ();
               parent = -1;
               domain = (Domain.self () :> int);
               t0 = t1 -. e.Tabseg.Instrument.seconds;
               t1;
               minor_words = charged;
               major_words = (if Float.is_nan charged then nan else 0.);
               minor_gcs = 0;
             })))

let spans tr = List.rev tr.spans

(* Sum of durations and allocation of the spans named [name]. *)
let total tr name =
  List.fold_left
    (fun (s, w, k) sp ->
      if sp.name = name then
        (s +. (sp.t1 -. sp.t0), w +. sp.minor_words, k + 1)
      else (s, w, k))
    (0., 0., 0) tr.spans

(* ------------------------------- output ------------------------------- *)

let json_string s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | c when Char.code c < 0x20 ->
        Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

(* Every digit the float has: runs are compared with one another, so
   nothing is rounded away. Non-finite values cannot be JSON numbers. *)
let json_float x =
  if Float.is_integer x && Float.abs x < 1e15 then Printf.sprintf "%.1f" x
  else if Float.is_finite x then Printf.sprintf "%.17g" x
  else "null"

type metric = string * string * float  (** name, unit, value *)

let write_trace ~path ~header tr =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () ->
      output_string oc header;
      output_char oc '\n';
      List.iter
        (fun s ->
          Printf.fprintf oc
            "{\"sid\":%d,\"name\":%s,\"req\":%s,\"parent\":%d,\"domain\":%d,\"start_ms\":%s,\"end_ms\":%s,\"minor_words\":%s,\"major_words\":%s,\"minor_gcs\":%d}\n"
            s.sid (json_string s.name) (json_string s.req) s.parent s.domain
            (json_float ((s.t0 -. tr.epoch) *. 1e3))
            (json_float ((s.t1 -. tr.epoch) *. 1e3))
            (json_float s.minor_words) (json_float s.major_words) s.minor_gcs)
        (spans tr))

let metrics_json metrics =
  "{"
  ^ String.concat ", "
      (List.map
         (fun (name, unit, value) ->
           Printf.sprintf "%s: {\"value\": %s, \"unit\": %s}" (json_string name)
             (json_float value) (json_string unit))
         metrics)
  ^ "}"

let result_line ~correct ~attempted ~failed metrics =
  Printf.sprintf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": %s}"
    correct attempted failed (metrics_json metrics)

(* The human-readable table printed above the result line. *)
let print_table metrics notes =
  List.iter
    (fun (name, unit, value) ->
      let note = try List.assoc name notes with Not_found -> "" in
      Printf.printf "  %-28s %16.4f %-7s %s\n" name value unit note)
    metrics

(* The execution environment, recorded with every run: the ROADMAP's
   minor-heap question (OCAMLRUNPARAM s=8M or not) is answered from it. *)
let environment () =
  [
    ("ocaml", Sys.ocaml_version);
    ("nproc", string_of_int (Domain.recommended_domain_count ()));
    ( "OCAMLRUNPARAM",
      match Sys.getenv_opt "OCAMLRUNPARAM" with Some v -> v | None -> "unset" );
    ( "minor_heap_words",
      string_of_int (Gc.get ()).Gc.minor_heap_size );
  ]

let environment_json () =
  "{"
  ^ String.concat ", "
      (List.map
         (fun (k, v) -> json_string k ^ ": " ^ json_string v)
         (environment ()))
  ^ "}"

(* What one workload run hands back to [Tabseg_perf], which prints it. *)
type outcome = {
  e2e : metric list;  (** measured with tracing off (or on, when traced) *)
  notes : (string * string) list;  (** metric -> sample count / rank *)
  layer : metric list;  (** per-layer metrics; traced runs only *)
  checks : (string * bool) list;  (** every correctness check, by name *)
  info : (string * string) list;  (** digests and sizes, for the log *)
  attempted : int;
  failed : int;
  trace : tracer;
}

(* ------------------------------ stolen time --------------------------- *)

(* CPU ticks from /proc/stat, summed over every vCPU: the ticks the
   hypervisor gave to other tenants ("steal"), and the ticks a vCPU
   wanted, that is was busy or had work the hypervisor did not run
   (user, nice, system, irq, softirq and steal). Each run prints the
   stolen share, so a reader can tell a quiet host from a busy one; no
   figure is corrected by it, since the CPU clocks already leave steal
   out. *)
let cpu_ticks () =
  match open_in "/proc/stat" with
  | exception Sys_error _ -> (0, 0)
  | ic ->
    let line =
      Fun.protect
        ~finally:(fun () -> close_in_noerr ic)
        (fun () -> try input_line ic with End_of_file -> "")
    in
    let field =
      let fields =
        Array.of_list
          (List.filter_map int_of_string_opt
             (List.filter (( <> ) "") (String.split_on_char ' ' line)))
      in
      fun i -> if i < Array.length fields then fields.(i) else 0
    in
    (* user nice system idle iowait irq softirq steal *)
    let steal = field 7 in
    (steal, field 0 + field 1 + field 2 + field 5 + field 6 + steal)

(* The share of the CPU time the machine wanted since [since] that the
   hypervisor took away. *)
let steal_share ~since:(steal0, wanted0) =
  let steal1, wanted1 = cpu_ticks () in
  if wanted1 <= wanted0 then 0.
  else float_of_int (steal1 - steal0) /. float_of_int (wanted1 - wanted0)
