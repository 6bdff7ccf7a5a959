(* The benchmark program: one workload per process.

     tabseg_perf --workload NAME --seed N --seconds S --trace 0|1

   prints a table of its metrics, the environment, the correctness
   checks, and as its last line one JSON object
   {"correct", "attempted", "failed", "metrics"}: the end-to-end metrics
   with --trace 0, the per-layer metrics with --trace 1. A traced run
   also writes its spans to .perfbench/trace-NAME-SEED.jsonl. Any failed
   check makes the exit code 1. *)

(* The metric lists of BENCHMARK.json, the one place they are kept. The
   program reports exactly the metrics of the list its run asks for, in
   its order: a layer a workload does not run reads 0, and a metric a
   workload reports that the list does not name stops the run. *)
let benchmark_file = "BENCHMARK.json"

(* The JSON strings and structural characters of [text], in order. The
   reader only needs these: a metric list is an array of flat objects. *)
let json_tokens text =
  let n = String.length text in
  let rec go i acc =
    if i >= n then List.rev acc
    else
      match text.[i] with
      | '"' ->
        let b = Buffer.create 16 in
        let rec str j =
          if j >= n then failwith "unterminated string"
          else
            match text.[j] with
            | '"' -> j + 1
            | '\\' when j + 1 < n ->
              Buffer.add_char b text.[j + 1];
              str (j + 2)
            | c ->
              Buffer.add_char b c;
              str (j + 1)
        in
        let next = str (i + 1) in
        go next (`Str (Buffer.contents b) :: acc)
      | ('[' | ']' | '{' | '}' | ':' | ',') as c -> go (i + 1) (`Punct c :: acc)
      | _ -> go (i + 1) acc
  in
  go 0 []

(* (name, unit) of every metric in the [section] array. *)
let benchmark_metrics text section =
  let rec find = function
    | `Str key :: `Punct ':' :: `Punct '[' :: rest when key = section -> rest
    | _ :: rest -> find rest
    | [] -> failwith ("no " ^ section ^ " list")
  in
  let rec collect name unit acc = function
    | `Punct ']' :: _ -> List.rev acc
    | `Str "name" :: `Punct ':' :: `Str v :: rest -> collect (Some v) unit acc rest
    | `Str "unit" :: `Punct ':' :: `Str v :: rest -> collect name (Some v) acc rest
    | `Punct '}' :: rest -> (
      match (name, unit) with
      | Some n, Some u -> collect None None ((n, u) :: acc) rest
      | _ -> failwith ("a metric of " ^ section ^ " lacks its name or unit"))
    | _ :: rest -> collect name unit acc rest
    | [] -> failwith ("unterminated " ^ section ^ " list")
  in
  collect None None [] (find (json_tokens text))

(* [reported] in the order of [listed], each with the listed unit. With
   [~fill], a listed metric the workload did not report reads 0;
   without, it is an error. A reported metric that is not listed is
   always an error. *)
let select ~fill listed (reported : Measure.metric list) =
  List.iter
    (fun (n, _, _) ->
      if not (List.mem_assoc n listed) then
        failwith (Printf.sprintf "metric %s is not in %s" n benchmark_file))
    reported;
  List.map
    (fun (name, unit) ->
      match List.find_opt (fun (n, _, _) -> n = name) reported with
      | Some (_, u, v) ->
        if u <> unit then
          failwith (Printf.sprintf "metric %s: unit %s, %s says %s" name u
                      benchmark_file unit);
        (name, unit, v)
      | None when fill -> (name, unit, 0.)
      | None -> failwith (Printf.sprintf "metric %s was not measured" name))
    listed

let workloads =
  [
    ("corpus-hmm", fun ~seed ~seconds ~trace ->
        Corpus_wl.run ~seed ~seconds ~trace Corpus_wl.hmm);
    ("corpus-csp", fun ~seed ~seconds ~trace ->
        Corpus_wl.run ~seed ~seconds ~trace Corpus_wl.csp);
    ("stream-large", fun ~seed ~seconds ~trace ->
        Stream_wl.run ~seed ~seconds ~trace);
    ("daemon-zipf", fun ~seed ~seconds ~trace ->
        Daemon_wl.run ~seed ~seconds ~trace);
  ]

let out_dir = ".perfbench"

let ensure_dir dir =
  if not (Sys.file_exists dir) then Unix.mkdir dir 0o755

(* Files a run leaves for later runs of the same build and workload: the
   untraced end-to-end figures of a seed (so a traced run of that seed
   can report its own overhead) and the accuracy digest (which must
   repeat; the sites do not depend on the seed, so neither does it). They
   are keyed by the executable's digest, so a rebuilt program starts
   afresh. *)
let build_id = lazy (String.sub (Digest.to_hex (Digest.file Sys.executable_name)) 0 12)

let keep_path kind key =
  Printf.sprintf "%s/%s-%s-%s.txt" out_dir kind key (Lazy.force build_id)

let read_lines path =
  match open_in path with
  | exception Sys_error _ -> []
  | ic ->
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> In_channel.input_all ic |> String.split_on_char '\n'
                 |> List.filter (( <> ) ""))

let write_lines path lines =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () -> List.iter (fun l -> output_string oc l; output_char oc '\n') lines)

let save_e2e path metrics =
  write_lines path (List.map (fun (n, _, v) -> Printf.sprintf "%s %.17g" n v) metrics)

let load_e2e path =
  List.filter_map
    (fun line ->
      match String.split_on_char ' ' line with
      | [ n; v ] -> Some (n, float_of_string v)
      | _ -> None)
    (read_lines path)

(* The accuracy digest a workload reports must equal the one an earlier
   run of the same build and workload recorded, whatever its seed, traced
   or not. The first run records it. *)
let accuracy_repeats name (o : Measure.outcome) =
  match List.assoc_opt "accuracy_digest" o.Measure.info with
  | None -> (false, "no accuracy digest reported")
  | Some digest -> (
    let path = keep_path "accuracy" name in
    match read_lines path with
    | [ earlier ] -> (earlier = digest, "against " ^ path)
    | _ ->
      write_lines path [ digest ];
      (true, "first run of this build: recorded in " ^ path))

let usage () =
  prerr_endline
    "usage: tabseg_perf --workload NAME --seed N --seconds S --trace 0|1";
  prerr_endline
    ("workloads: " ^ String.concat ", " (List.map fst workloads));
  exit 2

let () =
  (* daemon-zipf's daemon runs as a process of its own, from this
     executable. *)
  (match Array.to_list Sys.argv with
   | [ _; "--serve-daemon"; socket; store ] ->
     Daemon_wl.serve_daemon ~socket ~store;
     exit 0
   | _ -> ());
  let workload = ref "" and seed = ref 1 and seconds = ref 10. and trace = ref 0 in
  let rec parse = function
    | "--workload" :: v :: rest -> workload := v; parse rest
    | "--seed" :: v :: rest -> seed := int_of_string v; parse rest
    | "--seconds" :: v :: rest -> seconds := float_of_string v; parse rest
    | "--trace" :: v :: rest -> trace := int_of_string v; parse rest
    | [] -> ()
    | _ -> usage ()
  in
  (try parse (List.tl (Array.to_list Sys.argv)) with Failure _ -> usage ());
  let run =
    match List.assoc_opt !workload workloads with
    | Some run -> run
    | None -> usage ()
  in
  let traced = !trace = 1 in
  let end_to_end, per_layer =
    match In_channel.with_open_bin benchmark_file In_channel.input_all with
    | exception Sys_error e ->
      prerr_endline ("tabseg_perf: " ^ e);
      exit 2
    | text -> (
      try
        (benchmark_metrics text "end_to_end", benchmark_metrics text "per_layer")
      with Failure e ->
        prerr_endline ("tabseg_perf: " ^ benchmark_file ^ ": " ^ e);
        exit 2)
  in
  ensure_dir out_dir;
  Printf.printf "workload %s seed %d seconds %g trace %d\n" !workload !seed
    !seconds !trace;
  Printf.printf "environment %s\n%!" (Measure.environment_json ());
  let ticks = Measure.cpu_ticks () in
  let o = run ~seed:!seed ~seconds:!seconds ~trace:traced in
  let e2e =
    try select ~fill:false end_to_end o.Measure.e2e
    with Failure e ->
      prerr_endline ("tabseg_perf: " ^ e);
      exit 2
  in
  let repeats, repeats_note = accuracy_repeats !workload o in
  let o =
    {
      o with
      Measure.e2e;
      info =
        o.Measure.info
        @ [ ("cpu_steal_share", Printf.sprintf "%.4f" (Measure.steal_share ~since:ticks));
            ("accuracy_digest_check", repeats_note) ];
      checks = o.Measure.checks @ [ ("accuracy digest repeats across runs", repeats) ];
    }
  in
  Printf.printf "end-to-end (%s):\n" (if traced then "traced" else "untraced");
  Measure.print_table o.Measure.e2e o.Measure.notes;
  List.iter (fun (k, v) -> Printf.printf "  info %s = %s\n" k v) o.Measure.info;
  let correct = List.for_all snd o.Measure.checks in
  List.iter
    (fun (name, ok) ->
      Printf.printf "  check %-44s %s\n" name (if ok then "ok" else "FAILED"))
    o.Measure.checks;
  let path = keep_path "e2e" (Printf.sprintf "%s-%d" !workload !seed) in
  let metrics =
    if not traced then begin
      save_e2e path o.Measure.e2e;
      o.Measure.e2e
    end
    else begin
      let untraced = load_e2e path in
      let overhead =
        List.filter_map
          (fun (n, _, v) ->
            Option.map
              (fun u -> (n, v -. u))
              (List.assoc_opt n untraced))
          o.Measure.e2e
      in
      if overhead <> [] then begin
        Printf.printf "tracing overhead (traced - untraced, same seed):\n";
        List.iter (fun (n, d) -> Printf.printf "  %-28s %+.4f\n" n d) overhead
      end
      else Printf.printf "tracing overhead: no untraced run of this seed yet\n";
      let layer =
        try select ~fill:true per_layer o.Measure.layer
        with Failure e ->
          prerr_endline ("tabseg_perf: " ^ e);
          exit 2
      in
      Printf.printf "per-layer:\n";
      Measure.print_table layer [];
      let trace_path =
        Printf.sprintf "%s/trace-%s-%d.jsonl" out_dir !workload !seed
      in
      let header =
        Printf.sprintf
          "{\"workload\": %s, \"seed\": %d, \"environment\": %s, \"e2e_traced\": %s, \"overhead\": %s, \"per_layer\": %s}"
          (Measure.json_string !workload) !seed (Measure.environment_json ())
          (Measure.metrics_json o.Measure.e2e)
          (Measure.metrics_json
             (List.map (fun (n, d) -> (n, "delta", d)) overhead))
          (Measure.metrics_json layer)
      in
      Measure.write_trace ~path:trace_path ~header o.Measure.trace;
      Printf.printf "trace written to %s (%d spans)\n" trace_path
        o.Measure.trace.Measure.next;
      layer
    end
  in
  print_endline
    (Measure.result_line ~correct ~attempted:o.Measure.attempted
       ~failed:o.Measure.failed metrics);
  exit (if correct then 0 else 1)
