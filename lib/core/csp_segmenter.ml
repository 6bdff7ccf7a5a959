open Tabseg_extract
open Tabseg_csp

type mode = Strict | Relaxed

type relaxed_objective = Paper | Coverage

type config = {
  monotone : bool;
  relaxed_objective : relaxed_objective;
  wsat : Wsat_oip.params;
  exact_node_limit : int;
}

let default_config =
  { monotone = true; relaxed_objective = Paper;
    wsat = Wsat_oip.default_params; exact_node_limit = 500_000 }

let coverage_config = { default_config with relaxed_objective = Coverage }

type encoded = {
  problem : Pb.problem;
  variables : (int * int) array;
}

(* What the strict and the relaxed problem share: the variables and the
   consecutiveness, position and monotonicity constraints. Entry [i]'s
   variables are [offsets.(i)] .. [offsets.(i + 1) - 1], one per page of
   its [D_i] in ascending order. *)
type shared = {
  variables : (int * int) array;
  offsets : int array;
  unit_terms : (int * int) array;  (* [(v, 1)] for every variable [v] *)
  tail : Pb.constraint_ array;
}

let encode_shared config observation =
  let entries = observation.Observation.entries in
  let n = Array.length entries in
  let pages = Array.map (fun e -> Array.of_list e.Observation.pages) entries in
  let offsets = Array.make (n + 1) 0 in
  for i = 0 to n - 1 do
    offsets.(i + 1) <- offsets.(i) + Array.length pages.(i)
  done;
  let variables = Array.make offsets.(n) (0, 0) in
  Array.iteri
    (fun i entry_pages ->
      Array.iteri
        (fun idx j ->
          if idx > 0 && entry_pages.(idx - 1) >= j then
            invalid_arg "Csp_segmenter.encode: pages not strictly ascending";
          variables.(offsets.(i) + idx) <- (i, j))
        entry_pages)
    pages;
  (* The variable of entry [i] on detail page [j], by binary search. *)
  let var i j =
    let entry_pages = pages.(i) in
    let rec search lo hi =
      if lo >= hi then raise Not_found
      else
        let mid = (lo + hi) / 2 in
        let page = entry_pages.(mid) in
        if page = j then offsets.(i) + mid
        else if page < j then search (mid + 1) hi
        else search lo mid
    in
    search 0 (Array.length entry_pages)
  in
  let unit_terms = Array.init offsets.(n) (fun v -> (v, 1)) in
  (* The tail, in order, in an array that doubles as it fills. *)
  let tail = ref [||] and length = ref 0 in
  let add c =
    if !length = Array.length !tail then
      tail := Array.append !tail (Array.make (max 64 !length) c);
    !tail.(!length) <- c;
    incr length
  in
  (* A two-variable [≤ 1] row. Each pair is generated once, so none needs
     deduplicating: consecutiveness pairs share a record and monotonicity
     pairs do not, and each loop below visits a pair of variables once. *)
  let pair v1 v2 =
    add
      (Pb.Hard
         { Pb.terms = [| unit_terms.(v1); unit_terms.(v2) |];
           relation = Pb.Le; bound = 1 })
  in
  (* Consecutiveness: candidates of record j separated by an entry that
     cannot belong to j may not both be assigned to j. Each record's
     candidates, ascending, are collected in one pass over the entries. *)
  let num_details = observation.Observation.num_details in
  let candidates = Array.make (max 0 num_details) [] in
  for i = n - 1 downto 0 do
    Array.iteri
      (fun idx j ->
        if j >= 0 && j < num_details then
          candidates.(j) <- (i, offsets.(i) + idx) :: candidates.(j))
      pages.(i)
  done;
  Array.iter
    (fun record ->
      let record = Array.of_list record in
      let count = Array.length record in
      (* Blocks of stream-consecutive candidates: block [x] is
         [starts.(x)] .. [starts.(x + 1) - 1]. *)
      let starts = Array.make (count + 1) count in
      let blocks = ref 0 in
      for a = 0 to count - 1 do
        if a = 0 || fst record.(a) <> fst record.(a - 1) + 1 then begin
          starts.(!blocks) <- a;
          incr blocks
        end
      done;
      starts.(!blocks) <- count;
      (* Latest block first: each of its candidates against every earlier
         block, latest first. *)
      for x = !blocks - 1 downto 1 do
        for a = starts.(x) to starts.(x + 1) - 1 do
          for y = x - 1 downto 0 do
            for b = starts.(y) to starts.(y + 1) - 1 do
              pair (snd record.(a)) (snd record.(b))
            done
          done
        done
      done)
    candidates;
  (* Position: extracts observed at the same positions on a detail page
     compete for that record — the page offers only as many slots as it
     has occurrences. Extracts are grouped by their full occurrence-
     position list on the page (a value printed twice on the detail page,
     such as the repeated day in "12/12/1990", offers two slots), and at
     most |positions| of a group may take the record. Combined with the
     strict uniqueness equalities this yields the pigeonhole
     unsatisfiabilities of the paper's Section 6.3 failure reports.
     [Hashtbl.iter] emits the rows in an order fixed by the groups' keys
     and insertion order; [per_page] is reset, not cleared, between
     entries, so each entry's pages enter [groups] in the order a fresh
     table gives them. *)
  let groups = Hashtbl.create 64 in
  let per_page = Hashtbl.create 4 in
  Array.iteri
    (fun i entry ->
      Hashtbl.reset per_page;
      List.iter
        (fun (page, position) ->
          Hashtbl.replace per_page page
            (position
            :: Option.value ~default:[] (Hashtbl.find_opt per_page page)))
        entry.Observation.positions;
      Hashtbl.iter
        (fun page positions ->
          let key = (page, List.sort compare positions) in
          Hashtbl.replace groups key
            (i :: Option.value ~default:[] (Hashtbl.find_opt groups key)))
        per_page)
    entries;
  Hashtbl.iter
    (fun (page, positions) members ->
      let slots = List.length positions in
      match members with
      | [] | [ _ ] -> ()
      | members when List.length members > slots ->
        let terms =
          Array.of_list (List.map (fun i -> unit_terms.(var i page)) members)
        in
        add (Pb.Hard { Pb.terms; relation = Pb.Le; bound = slots })
      | _ -> ())
    groups;
  (* Monotonicity: an earlier extract may not sit in a later record than a
     later extract. Only a pair of entries whose page ranges overlap or
     invert can yield a constraint. *)
  if config.monotone then
    for i = 0 to n - 1 do
      let pages_i = pages.(i) in
      let count_i = Array.length pages_i in
      for k = i + 1 to n - 1 do
        let pages_k = pages.(k) in
        let count_k = Array.length pages_k in
        if count_i > 0 && count_k > 0 && pages_i.(count_i - 1) > pages_k.(0)
        then
          for a = 0 to count_i - 1 do
            for b = 0 to count_k - 1 do
              if pages_i.(a) > pages_k.(b) then
                pair (offsets.(i) + a) (offsets.(k) + b)
            done
          done
      done
    done;
  { variables; offsets; unit_terms; tail = Array.sub !tail 0 !length }

(* The mode's uniqueness constraints, one per entry (two for a relaxed
   entry under [Coverage]), ahead of the shared tail. Every extract
   belongs to exactly (relaxed: at most) one record. *)
let problem config mode shared =
  let per_entry =
    match (mode, config.relaxed_objective) with
    | Relaxed, Coverage -> 2
    | Strict, _ | Relaxed, Paper -> 1
  in
  let uniqueness c =
    let i = c / per_entry in
    let terms =
      Array.sub shared.unit_terms shared.offsets.(i)
        (shared.offsets.(i + 1) - shared.offsets.(i))
    in
    match mode with
    | Strict -> Pb.Hard { Pb.terms; relation = Pb.Eq; bound = 1 }
    | Relaxed when c mod per_entry = 0 ->
      Pb.Hard { Pb.terms; relation = Pb.Le; bound = 1 }
    | Relaxed -> Pb.Soft ({ Pb.terms; relation = Pb.Eq; bound = 1 }, 1)
  in
  let entries = Array.length shared.offsets - 1 in
  Pb.of_array ~num_vars:(Array.length shared.variables)
    (Array.append (Array.init (per_entry * entries) uniqueness) shared.tail)

let encode ?(config = default_config) mode observation =
  let shared = encode_shared config observation in
  { problem = problem config mode shared; variables = shared.variables }

(* Decode a solver assignment into per-entry record choices: the lowest
   record assigned to each entry, or [-1]. *)
let decode entries variables assignment =
  let choices = Array.make entries (-1) in
  Array.iteri
    (fun v (i, j) ->
      if assignment.(v) && (choices.(i) < 0 || j < choices.(i)) then
        choices.(i) <- j)
    variables;
  choices

let assemble_from_choices observation notes choices extras =
  let assigned = ref [] and unassigned = ref [] in
  Array.iteri
    (fun i entry ->
      let j = choices.(i) in
      if j >= 0 then
        assigned := (entry.Observation.extract, j, None) :: !assigned
      else unassigned := entry.Observation.extract :: !unassigned)
    observation.Observation.entries;
  Segmentation.assemble ~notes ~assigned:(List.rev !assigned)
    ~unassigned:(List.rev !unassigned) ~extras

let segment_observation config observation notes extras =
  if Array.length observation.Observation.entries = 0 then
    Segmentation.assemble ~notes ~assigned:[] ~unassigned:[] ~extras
  else begin
    let shared = encode_shared config observation in
    let strict = problem config Strict shared in
    let decode =
      decode (Array.length observation.Observation.entries) shared.variables
    in
    let relax_and_solve () =
      let notes =
        notes @ [ Segmentation.No_solution; Segmentation.Relaxed_constraints ]
      in
      let relaxed = problem config Relaxed shared in
      let params =
        match config.relaxed_objective with
        | Coverage -> config.wsat
        | Paper ->
          (* Emulate the paper's observed behaviour: WSAT(OIP) "was able
             to find solutions for the relaxed constraint problem, but
             the solution corresponded to a partial assignment". With no
             objective the walk stops at the first feasible point near
             its sparse random start — consistent, but partial and
             arbitrary. *)
          { config.wsat with Wsat_oip.init_density = 0.10 }
      in
      let result = Wsat_oip.solve ~params relaxed in
      assemble_from_choices observation notes
        (decode result.Wsat_oip.assignment)
        extras
    in
    (* Unit propagation first: the common inconsistency certificates (a
       planted value collision forcing two variables into an at-most-one
       constraint) surface here instantly, skipping a futile local
       search. *)
    if Presolve.is_unsat strict then relax_and_solve ()
    else begin
      let result = Wsat_oip.solve ~params:config.wsat strict in
      if result.Wsat_oip.feasible then
        assemble_from_choices observation notes
          (decode result.Wsat_oip.assignment)
          extras
      else
        match
          Exact.solve ~node_limit:config.exact_node_limit strict
        with
        | Exact.Sat assignment ->
          (* The local search was unlucky; the complete solver found a
             model. *)
          assemble_from_choices observation notes (decode assignment)
            extras
        | Exact.Unsat | Exact.Unknown -> relax_and_solve ()
    end
  end

let segment ?(config = default_config) (prepared : Pipeline.prepared) =
  Instrument.time ~stage:"segment.csp" (fun () ->
      segment_observation config prepared.Pipeline.observation
        prepared.Pipeline.notes
        prepared.Pipeline.observation.Observation.extras)

let solve_observation ?(config = default_config) observation =
  segment_observation config observation []
    observation.Observation.extras
