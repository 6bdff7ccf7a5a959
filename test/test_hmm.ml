open Tabseg_hmm

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_float = Alcotest.(check (float 1e-9))

(* ---------------------------- Logspace ---------------------------- *)

let test_logspace_add () =
  check_float "log(0.3+0.2)" (log 0.5)
    (Logspace.add (log 0.3) (log 0.2));
  check_float "zero + x = x" (log 0.7) (Logspace.add Logspace.zero (log 0.7));
  check_bool "zero + zero = zero" true
    (Logspace.is_zero (Logspace.add Logspace.zero Logspace.zero))

let test_logspace_sum () =
  let values = [| log 0.1; log 0.2; log 0.3 |] in
  check_float "sum" (log 0.6) (Logspace.sum values);
  check_bool "empty sum is zero" true (Logspace.is_zero (Logspace.sum [||]))

let test_logspace_mul () =
  check_float "product" (log 0.06) (Logspace.mul (log 0.2) (log 0.3));
  check_bool "absorbing zero" true
    (Logspace.is_zero (Logspace.mul Logspace.zero (log 0.5)))

let test_logspace_normalize () =
  let values = [| log 2.0; log 6.0 |] in
  Logspace.normalize values;
  check_float "first" (log 0.25) values.(0);
  check_float "second" (log 0.75) values.(1)

let test_logspace_of_prob () =
  check_bool "of_prob 0" true (Logspace.is_zero (Logspace.of_prob 0.));
  check_float "of_prob 1" 0. (Logspace.of_prob 1.);
  Alcotest.check_raises "negative rejected"
    (Invalid_argument "Logspace.of_prob: negative probability") (fun () ->
      ignore (Logspace.of_prob (-0.1)))

let prop_logsumexp_stable =
  QCheck.Test.make ~name:"log-sum-exp matches naive sum on safe range"
    ~count:200
    QCheck.(list_of_size (Gen.int_range 1 8) (float_bound_exclusive 1.0))
    (fun probabilities ->
      let probabilities = List.map (fun p -> p +. 1e-6) probabilities in
      let naive = log (List.fold_left ( +. ) 0. probabilities) in
      let stable =
        Logspace.sum (Array.of_list (List.map log probabilities))
      in
      Float.abs (naive -. stable) < 1e-9)

(* ------------------------------ Dist ------------------------------ *)

let test_dist_uniform () =
  let d = Dist.uniform 4 in
  check_float "prob" 0.25 (Dist.prob d 0);
  check_float "log prob" (log 0.25) (Dist.log_prob d 3)

let test_dist_estimate () =
  let d = Dist.estimate ~alpha:0.0001 ~counts:[| 1.; 3. |] () in
  check_bool "close to 0.25/0.75" true
    (Float.abs (Dist.prob d 0 -. 0.25) < 0.001
    && Float.abs (Dist.prob d 1 -. 0.75) < 0.001)

let test_dist_smoothing_avoids_zero () =
  let d = Dist.estimate ~alpha:0.5 ~counts:[| 0.; 10. |] () in
  check_bool "zero count smoothed" true (Dist.prob d 0 > 0.)

let test_dist_rejects_bad_weights () =
  Alcotest.check_raises "zero total"
    (Invalid_argument "Dist.of_weights: non-positive total") (fun () ->
      ignore (Dist.of_weights [| 0.; 0. |]))

let test_dist_entropy () =
  check_float "uniform entropy" (log 2.) (Dist.entropy (Dist.uniform 2));
  check_float "deterministic entropy" 0.
    (Dist.entropy (Dist.of_weights [| 1.; 0. |]))

let test_bernoulli () =
  let bv = Dist.bernoulli_uniform ~bits:8 ~p:0.125 in
  (* Probability of the all-zero mask: (7/8)^8. *)
  check_float "all-zero mask" (8. *. log (7. /. 8.))
    (Dist.bernoulli_log_prob bv 0);
  (* One bit set: (1/8)(7/8)^7. *)
  check_float "one bit" (log (1. /. 8.) +. (7. *. log (7. /. 8.)))
    (Dist.bernoulli_log_prob bv 1)

let test_bernoulli_estimate () =
  let bv =
    Dist.bernoulli_estimate ~alpha:0.0001 ~on_counts:[| 8.; 0.; 4.; 0.; 0.; 0.; 0.; 0. |]
      ~total:8. ()
  in
  check_bool "bit0 ~1" true (Dist.bernoulli_prob_on bv 0 > 0.99);
  check_bool "bit2 ~0.5" true
    (Float.abs (Dist.bernoulli_prob_on bv 2 -. 0.5) < 0.01);
  check_bool "bit1 ~0" true (Dist.bernoulli_prob_on bv 1 < 0.01)

(* ------------------------------ Fhmm ------------------------------ *)

(* A lattice with [sizes.(i)] states at position [i], the edges
   [preds i s] (ascending local indices at [i - 1]) into local state [s],
   and log weights from [init s], [trans i p s] and [emit i s]. *)
let make_lattice ~sizes ~preds ~init ~trans ~emit =
  let t =
    Fhmm.create ~sizes ~preds:(fun i s add -> List.iter add (preds i s))
  in
  for i = 0 to t.Fhmm.length - 1 do
    for s = 0 to sizes.(i) - 1 do
      let g = t.Fhmm.first.(i) + s in
      if i = 0 then t.Fhmm.init.(s) <- init s;
      t.Fhmm.emit.(g) <- emit i s;
      for e = t.Fhmm.pred_first.(g) to t.Fhmm.pred_first.(g + 1) - 1 do
        t.Fhmm.weight.(e) <- trans i (t.Fhmm.pred.(e) - t.Fhmm.first.(i - 1)) s
      done
    done
  done;
  t

let all_states n = List.init n Fun.id

(* A tiny two-state weather HMM with known Viterbi answer. States:
   0 = rainy, 1 = sunny. *)
let weather_lattice observations =
  let trans =
    [| [| 0.7; 0.3 |]; [| 0.4; 0.6 |] |]
  in
  (* Emissions: observation 0 (walk), 1 (shop), 2 (clean). *)
  let emit_table = [| [| 0.1; 0.4; 0.5 |]; [| 0.6; 0.3; 0.1 |] |] in
  make_lattice
    ~sizes:(Array.make (Array.length observations) 2)
    ~preds:(fun _ _ -> all_states 2)
    ~init:(fun s -> log (if s = 0 then 0.6 else 0.4))
    ~trans:(fun _ prev cur -> log trans.(prev).(cur))
    ~emit:(fun i s -> log emit_table.(s).(observations.(i)))

let posteriors lattice =
  let workspace = Fhmm.workspace lattice in
  if Fhmm.forward_backward lattice workspace then Some workspace else None

(* Sums of [gamma] over each position's states and of [xi] over each
   position's incoming edges. *)
let position_masses lattice workspace =
  let gamma = Fhmm.gamma workspace and xi = Fhmm.xi workspace in
  let first = lattice.Fhmm.first and pred_first = lattice.Fhmm.pred_first in
  List.init lattice.Fhmm.length (fun i ->
      let gamma_mass = ref 0. and xi_mass = ref 0. in
      for g = first.(i) to first.(i + 1) - 1 do
        gamma_mass := !gamma_mass +. gamma.(g);
        for e = pred_first.(g) to pred_first.(g + 1) - 1 do
          xi_mass := !xi_mass +. xi.(e)
        done
      done;
      (!gamma_mass, if i = 0 then 1. else !xi_mass))

(* Every path of local state indices, in lexicographic order. *)
let all_paths sizes =
  Array.fold_right
    (fun size tails ->
      List.concat_map
        (fun s -> List.map (fun tail -> s :: tail) tails)
        (all_states size))
    sizes [ [] ]
  |> List.map Array.of_list

let test_viterbi_weather () =
  (* Classic example: observations walk, shop, clean -> sunny, rainy,
     rainy. *)
  match Fhmm.viterbi (weather_lattice [| 0; 1; 2 |]) with
  | Some path ->
    Alcotest.(check (array int)) "path" [| 1; 0; 0 |] path
  | None -> Alcotest.fail "expected a path"

let test_forward_backward_normalized () =
  let lattice = weather_lattice [| 0; 1; 2; 0; 2 |] in
  match posteriors lattice with
  | None -> Alcotest.fail "expected posteriors"
  | Some workspace ->
    List.iter
      (fun (gamma_mass, xi_mass) ->
        check_bool "gamma sums to 1" true (Float.abs (gamma_mass -. 1.) < 1e-9);
        check_bool "xi sums to 1" true (Float.abs (xi_mass -. 1.) < 1e-9))
      (position_masses lattice workspace)

let test_forward_backward_likelihood_brute_force () =
  let lattice = weather_lattice [| 0; 2; 1 |] in
  (* Enumerate all 2^3 paths and sum their joint probabilities. *)
  let total =
    List.fold_left
      (fun acc path -> acc +. exp (Fhmm.path_log_prob lattice path))
      0. (all_paths [| 2; 2; 2 |])
  in
  match posteriors lattice with
  | Some workspace ->
    check_bool "log-likelihood matches brute force" true
      (Float.abs (Fhmm.log_likelihood workspace -. log total) < 1e-9)
  | None -> Alcotest.fail "expected posteriors"

let test_viterbi_beats_other_paths () =
  let lattice = weather_lattice [| 0; 1; 2; 2 |] in
  match Fhmm.viterbi lattice with
  | None -> Alcotest.fail "expected a path"
  | Some best ->
    let best_score = Fhmm.path_log_prob lattice best in
    List.iter
      (fun path ->
        check_bool "viterbi is maximal" true
          (Fhmm.path_log_prob lattice path <= best_score +. 1e-9))
      (all_paths [| 2; 2; 2; 2 |])

let test_infeasible_lattice () =
  let lattice ~preds =
    make_lattice ~sizes:[| 2; 2 |] ~preds
      ~init:(fun _ -> Logspace.one)
      ~trans:(fun _ _ _ -> Logspace.zero)
      ~emit:(fun _ _ -> Logspace.one)
  in
  (* No edge at all, and every edge of probability zero. *)
  List.iter
    (fun lattice ->
      check_bool "viterbi none" true (Fhmm.viterbi lattice = None);
      check_bool "posteriors none" true (posteriors lattice = None))
    [ lattice ~preds:(fun _ _ -> []); lattice ~preds:(fun _ _ -> all_states 2) ]

let test_position_dependent_states () =
  (* The admissible-state sets differ per position (as with D_i): the
     middle position only admits the state labelled 5. *)
  let labels = [| [| 3; 5 |]; [| 5 |]; [| 3; 5 |] |] in
  let lattice =
    make_lattice
      ~sizes:(Array.map Array.length labels)
      ~preds:(fun i _ -> all_states (Array.length labels.(i - 1)))
      ~init:(fun _ -> log 0.5)
      ~trans:(fun _ _ _ -> log 0.5)
      ~emit:(fun _ _ -> Logspace.one)
  in
  match Fhmm.viterbi lattice with
  | Some path -> check_int "middle state forced" 5 labels.(1).(path.(1))
  | None -> Alcotest.fail "expected a path"

let test_single_position () =
  let labels = [| 7; 9 |] in
  let lattice =
    make_lattice ~sizes:[| 2 |]
      ~preds:(fun _ _ -> [])
      ~init:(fun s -> log (if labels.(s) = 9 then 0.8 else 0.2))
      ~trans:(fun _ _ _ -> Logspace.zero)
      ~emit:(fun _ _ -> Logspace.one)
  in
  match Fhmm.viterbi lattice with
  | Some path -> check_int "most likely initial state" 9 labels.(path.(0))
  | None -> Alcotest.fail "expected a path"

let test_create_rejects_unordered () =
  Alcotest.check_raises "descending predecessors"
    (Invalid_argument "Fhmm.create: predecessors must ascend within range")
    (fun () ->
      ignore
        (Fhmm.create ~sizes:[| 2; 1 |] ~preds:(fun _ _ add -> add 1; add 0)))

(* A random small sparse lattice from [seed]: up to 6 positions of up to
   6 states, each possible edge present with probability 1/2 (so some
   states have none), and about one emission in ten of probability
   zero. *)
let random_lattice seed =
  let rng = Random.State.make [| seed |] in
  let weight () = log (0.05 +. Random.State.float rng 0.95) in
  let sizes =
    Array.init (1 + Random.State.int rng 6) (fun _ -> 1 + Random.State.int rng 6)
  in
  let preds =
    Array.mapi
      (fun i size ->
        Array.init size (fun _ ->
            if i = 0 then []
            else
              List.filter
                (fun _ -> Random.State.bool rng)
                (all_states sizes.(i - 1))))
      sizes
  in
  make_lattice ~sizes
    ~preds:(fun i s -> preds.(i).(s))
    ~init:(fun _ -> weight ())
    ~trans:(fun _ _ _ -> weight ())
    ~emit:(fun _ _ ->
      if Random.State.int rng 10 = 0 then Logspace.zero else weight ())

let prop_sparse_lattice =
  QCheck.Test.make ~name:"sparse lattice agrees with path enumeration"
    ~count:300 QCheck.int (fun seed ->
      let lattice = random_lattice seed in
      let sizes =
        Array.init lattice.Fhmm.length (fun i ->
            lattice.Fhmm.first.(i + 1) - lattice.Fhmm.first.(i))
      in
      let scores =
        List.map (fun path -> (path, Fhmm.path_log_prob lattice path))
          (all_paths sizes)
      in
      let feasible = List.filter (fun (_, s) -> s > Logspace.zero) scores in
      let best = List.fold_left (fun acc (_, s) -> Float.max acc s) Logspace.zero scores in
      let total = List.fold_left (fun acc (_, s) -> acc +. exp s) 0. feasible in
      match (Fhmm.viterbi lattice, posteriors lattice) with
      | None, None -> feasible = []
      | Some path, Some workspace ->
        feasible <> []
        && Float.abs (Fhmm.path_log_prob lattice path -. best) < 1e-9
        && Float.abs (Fhmm.log_likelihood workspace -. log total) < 1e-9
        && List.for_all
             (fun (gamma_mass, xi_mass) ->
               Float.abs (gamma_mass -. 1.) < 1e-9
               && Float.abs (xi_mass -. 1.) < 1e-9)
             (position_masses lattice workspace)
      | _ -> false)

let () =
  Alcotest.run "tabseg_hmm"
    [
      ( "logspace",
        [
          Alcotest.test_case "add" `Quick test_logspace_add;
          Alcotest.test_case "sum" `Quick test_logspace_sum;
          Alcotest.test_case "mul" `Quick test_logspace_mul;
          Alcotest.test_case "normalize" `Quick test_logspace_normalize;
          Alcotest.test_case "of_prob" `Quick test_logspace_of_prob;
          QCheck_alcotest.to_alcotest prop_logsumexp_stable;
        ] );
      ( "dist",
        [
          Alcotest.test_case "uniform" `Quick test_dist_uniform;
          Alcotest.test_case "estimate" `Quick test_dist_estimate;
          Alcotest.test_case "smoothing" `Quick test_dist_smoothing_avoids_zero;
          Alcotest.test_case "bad weights" `Quick test_dist_rejects_bad_weights;
          Alcotest.test_case "entropy" `Quick test_dist_entropy;
          Alcotest.test_case "bernoulli vector" `Quick test_bernoulli;
          Alcotest.test_case "bernoulli estimate" `Quick
            test_bernoulli_estimate;
        ] );
      ( "fhmm",
        [
          Alcotest.test_case "viterbi weather" `Quick test_viterbi_weather;
          Alcotest.test_case "posteriors normalized" `Quick
            test_forward_backward_normalized;
          Alcotest.test_case "likelihood vs brute force" `Quick
            test_forward_backward_likelihood_brute_force;
          Alcotest.test_case "viterbi maximal" `Quick
            test_viterbi_beats_other_paths;
          Alcotest.test_case "infeasible lattice" `Quick
            test_infeasible_lattice;
          Alcotest.test_case "position dependent states" `Quick
            test_position_dependent_states;
          Alcotest.test_case "single position" `Quick test_single_position;
          Alcotest.test_case "unordered predecessors rejected" `Quick
            test_create_rejects_unordered;
          QCheck_alcotest.to_alcotest
            ~rand:(Random.State.make [| 13 |])
            prop_sparse_lattice;
        ] );
    ]
