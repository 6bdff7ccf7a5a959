open Tabseg_csp

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* ------------------------------ Pb ------------------------------ *)

let test_violation_le () =
  let c = Pb.linear [ (0, 1); (1, 1) ] Pb.Le 1 in
  check_int "0+0 <= 1 ok" 0 (Pb.violation c [| false; false |]);
  check_int "1+0 <= 1 ok" 0 (Pb.violation c [| true; false |]);
  check_int "1+1 <= 1 violated by 1" 1 (Pb.violation c [| true; true |])

let test_violation_ge () =
  let c = Pb.linear [ (0, 2); (1, 1) ] Pb.Ge 2 in
  check_int "0 >= 2 violated by 2" 2 (Pb.violation c [| false; false |]);
  check_int "2 >= 2 ok" 0 (Pb.violation c [| true; false |])

let test_violation_eq () =
  let c = Pb.exactly_one [ 0; 1; 2 ] in
  check_int "none violated by 1" 1 (Pb.violation c [| false; false; false |]);
  check_int "one ok" 0 (Pb.violation c [| true; false; false |]);
  check_int "three violated by 2" 2 (Pb.violation c [| true; true; true |])

let test_negative_coefficients () =
  let c = Pb.linear [ (0, 1); (1, -1) ] Pb.Le 0 in
  check_int "x0 - x1 <= 0, (1,0) violated" 1 (Pb.violation c [| true; false |]);
  check_int "(1,1) ok" 0 (Pb.violation c [| true; true |])

let test_make_validation () =
  Alcotest.check_raises "out of range"
    (Invalid_argument "Pb.make: variable 5 out of range") (fun () ->
      ignore (Pb.make ~num_vars:2 [ Pb.Hard (Pb.exactly_one [ 5 ]) ]));
  Alcotest.check_raises "duplicate"
    (Invalid_argument "Pb.make: duplicate variable 0") (fun () ->
      ignore (Pb.make ~num_vars:2 [ Pb.Hard (Pb.exactly_one [ 0; 0 ]) ]));
  Alcotest.check_raises "bad weight"
    (Invalid_argument "Pb.make: non-positive soft weight") (fun () ->
      ignore (Pb.make ~num_vars:2 [ Pb.Soft (Pb.exactly_one [ 0 ], 0) ]))

let test_costs () =
  let problem =
    Pb.make ~num_vars:2
      [ Pb.Hard (Pb.at_most_one [ 0; 1 ]);
        Pb.Soft (Pb.exactly_one [ 0 ], 3) ]
  in
  check_int "hard violations" 0 (Pb.hard_violations problem [| false; false |]);
  check_int "soft cost when unassigned" 3
    (Pb.soft_cost problem [| false; false |]);
  check_bool "feasible" true (Pb.feasible problem [| false; false |])

(* ----------------------------- Exact ----------------------------- *)

let test_exact_sat () =
  let problem =
    Pb.make ~num_vars:3
      [ Pb.Hard (Pb.exactly_one [ 0; 1 ]); Pb.Hard (Pb.exactly_one [ 1; 2 ]) ]
  in
  match Exact.solve problem with
  | Exact.Sat a -> check_bool "model feasible" true (Pb.feasible problem a)
  | Exact.Unsat | Exact.Unknown -> Alcotest.fail "expected SAT"

let test_exact_unsat () =
  (* x0 = 1 and x1 = 1 and x0 + x1 <= 1 is unsatisfiable. *)
  let problem =
    Pb.make ~num_vars:2
      [ Pb.Hard (Pb.exactly_one [ 0 ]); Pb.Hard (Pb.exactly_one [ 1 ]);
        Pb.Hard (Pb.at_most_one [ 0; 1 ]) ]
  in
  check_bool "unsat" true (Exact.solve problem = Exact.Unsat)

let test_exact_count () =
  let problem =
    Pb.make ~num_vars:4 [ Pb.Hard (Pb.exactly_one [ 0; 1; 2; 3 ]) ]
  in
  check_int "4 models" 4 (Exact.count_solutions problem);
  let free = Pb.make ~num_vars:4 [] in
  check_int "16 models" 16 (Exact.count_solutions free)

let test_exact_ignores_soft () =
  let problem = Pb.make ~num_vars:1 [ Pb.Soft (Pb.exactly_one [ 0 ], 5) ] in
  check_int "soft ignored: 2 models" 2 (Exact.count_solutions problem)

(* ---------------------------- Wsat_oip --------------------------- *)

let quick_params = { Wsat_oip.default_params with max_flips = 20_000 }

let test_wsat_simple_sat () =
  let problem =
    Pb.make ~num_vars:4
      [ Pb.Hard (Pb.exactly_one [ 0; 1 ]); Pb.Hard (Pb.exactly_one [ 2; 3 ]);
        Pb.Hard (Pb.at_most_one [ 0; 2 ]) ]
  in
  let result = Wsat_oip.solve ~params:quick_params problem in
  check_bool "feasible" true result.Wsat_oip.feasible;
  check_int "no hard violations" 0 result.Wsat_oip.hard_violations

let test_wsat_soft_optimization () =
  (* Hard: at most one of x0,x1. Soft: both wanted. The optimum keeps one. *)
  let problem =
    Pb.make ~num_vars:2
      [ Pb.Hard (Pb.at_most_one [ 0; 1 ]);
        Pb.Soft (Pb.exactly_one [ 0 ], 1);
        Pb.Soft (Pb.exactly_one [ 1 ], 1) ]
  in
  let result = Wsat_oip.solve ~params:quick_params problem in
  check_bool "feasible" true result.Wsat_oip.feasible;
  check_int "one soft violated" 1 result.Wsat_oip.soft_cost

let test_wsat_unsat_reports_infeasible () =
  let problem =
    Pb.make ~num_vars:2
      [ Pb.Hard (Pb.exactly_one [ 0 ]); Pb.Hard (Pb.exactly_one [ 1 ]);
        Pb.Hard (Pb.at_most_one [ 0; 1 ]) ]
  in
  let params = { quick_params with max_flips = 2_000; max_tries = 2 } in
  let result = Wsat_oip.solve ~params problem in
  check_bool "not feasible" false result.Wsat_oip.feasible

let test_wsat_deterministic () =
  let problem =
    Pb.make ~num_vars:6
      [ Pb.Hard (Pb.exactly_one [ 0; 1; 2 ]);
        Pb.Hard (Pb.exactly_one [ 3; 4; 5 ]);
        Pb.Hard (Pb.at_most_one [ 0; 3 ]) ]
  in
  let a = Wsat_oip.solve ~params:quick_params problem in
  let b = Wsat_oip.solve ~params:quick_params problem in
  check_bool "same assignment for same seed" true
    (a.Wsat_oip.assignment = b.Wsat_oip.assignment)

let test_wsat_empty_problem () =
  let problem = Pb.make ~num_vars:0 [] in
  let result = Wsat_oip.solve ~params:quick_params problem in
  check_bool "trivially feasible" true result.Wsat_oip.feasible

(* ------------------------- Random problems ------------------------ *)

(* Random assignment-shaped problems: disjoint exactly-one groups plus
   random at-most-one pairs; compare WSAT against the exact solver. *)
let random_problem rand =
  let num_groups = 2 + Random.State.int rand 4 in
  let group_size = 2 + Random.State.int rand 3 in
  let num_vars = num_groups * group_size in
  let groups =
    List.init num_groups (fun g ->
        Pb.Hard
          (Pb.exactly_one
             (List.init group_size (fun i -> (g * group_size) + i))))
  in
  let pairs =
    List.init (Random.State.int rand 6) (fun _ ->
        let v1 = Random.State.int rand num_vars in
        let v2 = Random.State.int rand num_vars in
        if v1 = v2 then None
        else Some (Pb.Hard (Pb.at_most_one [ v1; v2 ])))
    |> List.filter_map Fun.id
  in
  Pb.make ~num_vars (groups @ pairs)

let test_wsat_agrees_with_exact () =
  let rand = Random.State.make [| 7 |] in
  for _ = 1 to 50 do
    let problem = random_problem rand in
    let exact = Exact.solve problem in
    let wsat = Wsat_oip.solve ~params:quick_params problem in
    match exact with
    | Exact.Sat _ ->
      check_bool "WSAT finds a model when one exists" true
        wsat.Wsat_oip.feasible
    | Exact.Unsat ->
      check_bool "WSAT cannot find a model of an UNSAT problem" false
        wsat.Wsat_oip.feasible
    | Exact.Unknown -> ()
  done

let prop_exact_model_is_feasible =
  QCheck.Test.make ~name:"exact solver models satisfy the problem" ~count:60
    QCheck.(int_bound 10_000)
    (fun seed ->
      let rand = Random.State.make [| seed |] in
      let problem = random_problem rand in
      match Exact.solve problem with
      | Exact.Sat a -> Pb.feasible problem a
      | Exact.Unsat | Exact.Unknown -> true)

(* ---------------------------- Presolve ---------------------------- *)

let test_presolve_fixes_singletons () =
  let problem =
    Pb.make ~num_vars:3
      [ Pb.Hard (Pb.exactly_one [ 0 ]); Pb.Hard (Pb.at_most_one [ 0; 1 ]) ]
  in
  match Presolve.run problem with
  | Presolve.Fixed fixed ->
    check_bool "x0 forced true" true (List.mem (0, true) fixed);
    check_bool "x1 propagated false" true (List.mem (1, false) fixed);
    check_bool "x2 untouched" true (not (List.mem_assoc 2 fixed))
  | Presolve.Conflict message -> Alcotest.failf "unexpected conflict: %s" message

let test_presolve_detects_conflict () =
  (* The Michigan certificate: two forced variables in one at-most-one. *)
  let problem =
    Pb.make ~num_vars:2
      [ Pb.Hard (Pb.exactly_one [ 0 ]); Pb.Hard (Pb.exactly_one [ 1 ]);
        Pb.Hard (Pb.at_most_one [ 0; 1 ]) ]
  in
  check_bool "conflict found" true (Presolve.is_unsat problem)

let test_presolve_ge_propagation () =
  (* x0 + x1 >= 2 forces both. *)
  let problem =
    Pb.make ~num_vars:2 [ Pb.Hard (Pb.linear [ (0, 1); (1, 1) ] Pb.Ge 2) ]
  in
  match Presolve.run problem with
  | Presolve.Fixed fixed ->
    check_bool "both forced" true
      (List.mem (0, true) fixed && List.mem (1, true) fixed)
  | Presolve.Conflict _ -> Alcotest.fail "not a conflict"

let test_presolve_negative_coefficients () =
  (* x0 - x1 >= 1 forces x0 = 1 and x1 = 0. *)
  let problem =
    Pb.make ~num_vars:2 [ Pb.Hard (Pb.linear [ (0, 1); (1, -1) ] Pb.Ge 1) ]
  in
  match Presolve.run problem with
  | Presolve.Fixed fixed ->
    check_bool "x0 true, x1 false" true
      (List.mem (0, true) fixed && List.mem (1, false) fixed)
  | Presolve.Conflict _ -> Alcotest.fail "not a conflict"

let test_presolve_no_false_conflicts () =
  let problem =
    Pb.make ~num_vars:4
      [ Pb.Hard (Pb.exactly_one [ 0; 1 ]); Pb.Hard (Pb.exactly_one [ 2; 3 ]) ]
  in
  check_bool "satisfiable problem passes" false (Presolve.is_unsat problem)

let prop_presolve_agrees_with_exact =
  QCheck.Test.make
    ~name:"presolve conflicts only on UNSAT; fixings preserve models"
    ~count:80
    QCheck.(int_bound 10_000)
    (fun seed ->
      let rand = Random.State.make [| seed + 17 |] in
      let problem = random_problem rand in
      match (Presolve.run problem, Exact.solve problem) with
      | Presolve.Conflict _, Exact.Unsat -> true
      | Presolve.Conflict _, (Exact.Sat _ | Exact.Unknown) -> false
      | Presolve.Fixed fixed, Exact.Sat _ ->
        (* A forced literal is a consequence: pinning its negation must
           make the problem unsatisfiable. *)
        List.for_all
          (fun (v, value) ->
            let pin_negation =
              Pb.Hard
                (Pb.linear [ (v, 1) ] Pb.Eq (if value then 0 else 1))
            in
            Exact.solve
              (Pb.make ~num_vars:problem.Pb.num_vars
                 (pin_negation :: Array.to_list problem.Pb.constraints))
            = Exact.Unsat)
          fixed
      | Presolve.Fixed _, (Exact.Unsat | Exact.Unknown) -> true)

(* ------------------------------ Opb ------------------------------- *)

let sample_problem =
  Pb.make ~num_vars:4
    [ Pb.Hard (Pb.exactly_one [ 0; 1 ]);
      Pb.Hard (Pb.linear [ (1, 2); (2, -1) ] Pb.Ge 1);
      Pb.Soft (Pb.at_most_one [ 2; 3 ], 5) ]

let test_opb_to_string () =
  let text = Opb.to_string sample_problem in
  check_bool "header" true
    (String.length text > 0 && text.[0] = '*');
  check_bool "hard line" true
    (String.split_on_char '\n' text
    |> List.exists (fun l -> l = "+1 x1 +1 x2 = 1 ;"));
  check_bool "soft comment" true
    (String.split_on_char '\n' text
    |> List.exists (fun l -> l = "* soft 5: +1 x3 +1 x4 <= 1 ;"))

let test_opb_roundtrip () =
  match Opb.of_string (Opb.to_string sample_problem) with
  | Error message -> Alcotest.failf "parse failed: %s" message
  | Ok parsed ->
    check_int "num vars" sample_problem.Pb.num_vars parsed.Pb.num_vars;
    check_int "constraint count"
      (Array.length sample_problem.Pb.constraints)
      (Array.length parsed.Pb.constraints);
    (* Semantic equality: same violations on every assignment. *)
    for mask = 0 to 15 do
      let assignment = Array.init 4 (fun v -> mask land (1 lsl v) <> 0) in
      check_int "hard violations agree"
        (Pb.hard_violations sample_problem assignment)
        (Pb.hard_violations parsed assignment);
      check_int "soft cost agrees"
        (Pb.soft_cost sample_problem assignment)
        (Pb.soft_cost parsed assignment)
    done

let test_opb_parse_errors () =
  check_bool "garbage rejected" true
    (Result.is_error (Opb.of_string "+1 y2 >= 1 ;"));
  check_bool "missing bound rejected" true
    (Result.is_error (Opb.of_string "+1 x1 >= ;"));
  check_bool "plain comments skipped" true
    (Result.is_ok (Opb.of_string "* just a note\n+1 x1 >= 0 ;"))

let prop_opb_roundtrip_random =
  QCheck.Test.make ~name:"OPB round-trip preserves semantics" ~count:50
    QCheck.(int_bound 10_000)
    (fun seed ->
      let rand = Random.State.make [| seed |] in
      let problem = random_problem rand in
      match Opb.of_string (Opb.to_string problem) with
      | Error _ -> false
      | Ok parsed ->
        let ok = ref (problem.Pb.num_vars = parsed.Pb.num_vars) in
        for _ = 1 to 20 do
          let assignment =
            Array.init problem.Pb.num_vars (fun _ -> Random.State.bool rand)
          in
          if
            Pb.hard_violations problem assignment
            <> Pb.hard_violations parsed assignment
          then ok := false
        done;
        !ok)

(* ----------------------- Pb.make error order ----------------------- *)

(* The first error [Pb.make] must report, found the plain way: constraints
   in order, each term's range before its duplication, the soft weight
   after the terms. *)
let reference_error num_vars constraints =
  let check_terms terms =
    let seen = Hashtbl.create 8 in
    List.find_map
      (fun (v, _) ->
        if v < 0 || v >= num_vars then
          Some (Printf.sprintf "Pb.make: variable %d out of range" v)
        else if Hashtbl.mem seen v then
          Some (Printf.sprintf "Pb.make: duplicate variable %d" v)
        else begin
          Hashtbl.replace seen v ();
          None
        end)
      (Array.to_list terms)
  in
  List.find_map
    (function
      | Pb.Hard l -> check_terms l.Pb.terms
      | Pb.Soft (l, w) -> (
        match check_terms l.Pb.terms with
        | Some _ as error -> error
        | None ->
          if w <= 0 then Some "Pb.make: non-positive soft weight" else None))
    constraints

let prop_make_error_order =
  QCheck.Test.make ~name:"Pb.make reports the first error in term order"
    ~count:300 QCheck.(int_bound 1_000_000)
    (fun seed ->
      let rand = Random.State.make [| seed |] in
      let num_vars = Random.State.int rand 5 in
      let constraints =
        List.init (Random.State.int rand 5) (fun _ ->
            let terms =
              List.init (Random.State.int rand 4) (fun _ ->
                  (Random.State.int rand (num_vars + 3) - 1, 1))
            in
            let l = Pb.linear terms Pb.Le 1 in
            if Random.State.bool rand then Pb.Hard l
            else Pb.Soft (l, Random.State.int rand 3 - 1))
      in
      let actual =
        match Pb.make ~num_vars constraints with
        | _ -> None
        | exception Invalid_argument message -> Some message
      in
      actual = reference_error num_vars constraints)

(* ------------------------ CSP encoding shape ------------------------ *)

module Csp = Tabseg.Csp_segmenter
module Observation = Tabseg_extract.Observation

(* A random observation table: up to 12 entries over up to 5 detail pages,
   each with a strictly ascending, non-empty D_i and one or two
   occurrences per page drawn from a few positions, so that entries share
   records, positions and blocks often. *)
let random_observation rand =
  let num_details = 1 + Random.State.int rand 5 in
  let entry id =
    let pages =
      match
        List.filter
          (fun _ -> Random.State.int rand 3 = 0)
          (List.init num_details Fun.id)
      with
      | [] -> [ Random.State.int rand num_details ]
      | pages -> pages
    in
    let positions =
      List.concat_map
        (fun page ->
          List.init
            (1 + Random.State.int rand 2)
            (fun _ -> (page, 10 * Random.State.int rand 3)))
        pages
    in
    let extract =
      {
        Tabseg_extract.Extract.id;
        words = [ "w" ];
        text = "w";
        start_index = id;
        stop_index = id + 1;
        types = 0;
        first_types = 0;
      }
    in
    { Observation.extract; pages; positions }
  in
  {
    Observation.entries = Array.init (Random.State.int rand 13) entry;
    extras = [];
    num_details;
  }

(* The variable sets of the position rows: entries grouped by their
   occurrence positions on one page, where more entries than slots
   compete. They may coincide with a consecutiveness pair, and always
   could: position rows were never deduplicated. *)
let position_sets observation (encoded : Csp.encoded) =
  let var = Hashtbl.create 64 in
  Array.iteri (fun v key -> Hashtbl.replace var key v) encoded.Csp.variables;
  let groups = Hashtbl.create 16 in
  Array.iteri
    (fun i entry ->
      List.iter
        (fun page ->
          let positions =
            List.filter_map
              (fun (p, position) -> if p = page then Some position else None)
              entry.Observation.positions
          in
          if positions <> [] then begin
            let key = (page, List.sort compare positions) in
            Hashtbl.replace groups key
              (i :: Option.value ~default:[] (Hashtbl.find_opt groups key))
          end)
        entry.Observation.pages)
    observation.Observation.entries;
  Hashtbl.fold
    (fun (page, positions) members acc ->
      if List.length members > 1 && List.length members > List.length positions
      then
        List.sort compare
          (List.map (fun i -> Hashtbl.find var (i, page)) members)
        :: acc
      else acc)
    groups []

let prop_encode_no_repeated_sets =
  QCheck.Test.make
    ~name:"encode repeats no variable set outside position rows"
    ~count:300 QCheck.(int_bound 1_000_000)
    (fun seed ->
      let rand = Random.State.make [| seed |] in
      let observation = random_observation rand in
      let config =
        { Csp.default_config with
          Csp.monotone = Random.State.bool rand;
          relaxed_objective =
            (if Random.State.bool rand then Csp.Paper else Csp.Coverage) }
      in
      List.for_all
        (fun mode ->
          let encoded = Csp.encode ~config mode observation in
          let positional = position_sets observation encoded in
          let seen = Hashtbl.create 64 in
          Array.for_all
            (function
              | Pb.Soft _ ->
                (* The coverage row mirrors its entry's hard row. *)
                true
              | Pb.Hard l ->
                let set =
                  List.sort compare (List.map fst (Array.to_list l.Pb.terms))
                in
                let repeated = Hashtbl.mem seen set in
                Hashtbl.replace seen set ();
                (not repeated) || List.mem set positional)
            encoded.Csp.problem.Pb.constraints)
        [ Csp.Strict; Csp.Relaxed ])

let () =
  Alcotest.run "tabseg_csp"
    [
      ( "pb",
        [
          Alcotest.test_case "violation le" `Quick test_violation_le;
          Alcotest.test_case "violation ge" `Quick test_violation_ge;
          Alcotest.test_case "violation eq" `Quick test_violation_eq;
          Alcotest.test_case "negative coefficients" `Quick
            test_negative_coefficients;
          Alcotest.test_case "make validation" `Quick test_make_validation;
          Alcotest.test_case "costs" `Quick test_costs;
          QCheck_alcotest.to_alcotest prop_make_error_order;
        ] );
      ( "exact",
        [
          Alcotest.test_case "sat" `Quick test_exact_sat;
          Alcotest.test_case "unsat" `Quick test_exact_unsat;
          Alcotest.test_case "count" `Quick test_exact_count;
          Alcotest.test_case "ignores soft" `Quick test_exact_ignores_soft;
        ] );
      ( "wsat",
        [
          Alcotest.test_case "simple sat" `Quick test_wsat_simple_sat;
          Alcotest.test_case "soft optimization" `Quick
            test_wsat_soft_optimization;
          Alcotest.test_case "unsat reports infeasible" `Quick
            test_wsat_unsat_reports_infeasible;
          Alcotest.test_case "deterministic" `Quick test_wsat_deterministic;
          Alcotest.test_case "empty problem" `Quick test_wsat_empty_problem;
          Alcotest.test_case "agrees with exact on random problems" `Quick
            test_wsat_agrees_with_exact;
        ] );
      ( "presolve",
        [
          Alcotest.test_case "fixes singletons" `Quick
            test_presolve_fixes_singletons;
          Alcotest.test_case "detects conflict" `Quick
            test_presolve_detects_conflict;
          Alcotest.test_case "ge propagation" `Quick
            test_presolve_ge_propagation;
          Alcotest.test_case "negative coefficients" `Quick
            test_presolve_negative_coefficients;
          Alcotest.test_case "no false conflicts" `Quick
            test_presolve_no_false_conflicts;
          QCheck_alcotest.to_alcotest prop_presolve_agrees_with_exact;
        ] );
      ( "opb",
        [
          Alcotest.test_case "to_string" `Quick test_opb_to_string;
          Alcotest.test_case "roundtrip" `Quick test_opb_roundtrip;
          Alcotest.test_case "parse errors" `Quick test_opb_parse_errors;
        ] );
      ( "properties",
        [
          QCheck_alcotest.to_alcotest prop_exact_model_is_feasible;
          QCheck_alcotest.to_alcotest prop_opb_roundtrip_random;
          QCheck_alcotest.to_alcotest prop_encode_no_repeated_sets;
        ] );
    ]
