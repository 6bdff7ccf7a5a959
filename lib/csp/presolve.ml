type outcome =
  | Fixed of (int * bool) list
  | Conflict of string

type state = {
  value : int array;  (* -1 unknown, 0 false, 1 true *)
  trail : (int * bool) list ref;
}

exception Found_conflict of string

let assign state v value =
  match state.value.(v) with
  | -1 ->
    state.value.(v) <- (if value then 1 else 0);
    state.trail := (v, value) :: !(state.trail);
    true
  | current when (current = 1) = value -> false
  | _ ->
    raise
      (Found_conflict
         (Printf.sprintf "variable x%d forced both ways" (v + 1)))

let conflict linear =
  raise (Found_conflict (Format.asprintf "%a" Pb.pp_linear linear))

(* Propagate one constraint; true if any variable was newly fixed. A
   first pass sums the fixed contribution and the positive and negative
   potential of the unknowns; a second forces unknowns from the last term
   back, the order in which they reach [Fixed]'s trail. *)
let propagate state (linear : Pb.linear) =
  let terms = linear.Pb.terms and bound = linear.Pb.bound in
  let fixed = ref 0 and positive = ref 0 and negative = ref 0 in
  for t = 0 to Array.length terms - 1 do
    let v, coeff = terms.(t) in
    match state.value.(v) with
    | 1 -> fixed := !fixed + coeff
    | 0 -> ()
    | _ ->
      if coeff > 0 then positive := !positive + coeff
      else negative := !negative + coeff
  done;
  let lo = !fixed + !negative and hi = !fixed + !positive in
  (match linear.Pb.relation with
  | Pb.Le -> if lo > bound then conflict linear
  | Pb.Ge -> if hi < bound then conflict linear
  | Pb.Eq -> if lo > bound || hi < bound then conflict linear);
  let changed = ref false in
  for t = Array.length terms - 1 downto 0 do
    let v, coeff = terms.(t) in
    if state.value.(v) = -1 then begin
      (* 0 or 1 when the unknown is forced to that value, else -1. *)
      let forced =
        match linear.Pb.relation with
        | Pb.Le ->
          (* A positive unknown whose addition would break the bound must
             be 0; a negative unknown whose absence would break it must
             be 1. *)
          if coeff > 0 && lo + coeff > bound then 0
          else if coeff < 0 && lo - coeff > bound then 1
          else -1
        | Pb.Ge ->
          if coeff > 0 && hi - coeff < bound then 1
          else if coeff < 0 && hi + coeff < bound then 0
          else -1
        | Pb.Eq ->
          if coeff > 0 then
            if lo + coeff > bound then 0
            else if hi - coeff < bound then 1
            else -1
          else if lo - coeff > bound then 1
          else if hi + coeff < bound then 0
          else -1
      in
      if forced >= 0 && assign state v (forced = 1) then changed := true
    end
  done;
  !changed

let run (problem : Pb.problem) =
  let state =
    { value = Array.make (max 1 problem.Pb.num_vars) (-1); trail = ref [] }
  in
  try
    let changed = ref true in
    while !changed do
      changed := false;
      Array.iter
        (function
          | Pb.Hard linear -> if propagate state linear then changed := true
          | Pb.Soft _ -> ())
        problem.Pb.constraints
    done;
    Fixed (List.rev !(state.trail))
  with Found_conflict message -> Conflict message

let is_unsat problem =
  match run problem with
  | Conflict _ -> true
  | Fixed _ -> false
