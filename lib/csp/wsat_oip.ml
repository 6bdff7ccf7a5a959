type params = {
  max_flips : int;
  max_tries : int;
  noise : float;
  tabu : int;
  hard_weight : int;
  init_density : float;
  seed : int;
}

let default_params =
  { max_flips = 20_000; max_tries = 4; noise = 0.1; tabu = 3;
    hard_weight = 1000; init_density = 0.5; seed = 42 }

type result = {
  assignment : bool array;
  feasible : bool;
  hard_violations : int;
  soft_cost : int;
  flips_used : int;
  tries_used : int;
}

(* Per-constraint static data extracted from the problem. *)
type row = {
  terms : (int * int) array;
  relation : Pb.relation;
  bound : int;
  weight : int;  (* penalty per unit of violation *)
  hard : bool;
}

(* The rows each variable occurs in, in descending row order: variable
   [v]'s are [var_row.(k)] with coefficient [var_coeff.(k)] for [k] in
   [var_start.(v)] .. [var_start.(v + 1) - 1]. Built once per solve. *)
type incidence = {
  var_start : int array;
  var_row : int array;
  var_coeff : int array;
}

type state = {
  rows : row array;
  incidence : incidence;
  assignment : bool array;
  lhs : int array;  (* current Σ coeff·x per row *)
  (* Violated-row set with O(1) add/remove: *)
  violated : int array;  (* dense array of violated row indices *)
  mutable violated_count : int;
  violated_position : int array;  (* row -> index in [violated], or -1 *)
  mutable score : int;  (* total weighted violation, hard and soft *)
  mutable hard_violation_units : int;  (* Σ violation over hard rows *)
  last_flip : int array;  (* var -> flip number of last flip *)
}

let row_violation row lhs =
  match row.relation with
  | Pb.Le -> max 0 (lhs - row.bound)
  | Pb.Ge -> max 0 (row.bound - lhs)
  | Pb.Eq -> abs (lhs - row.bound)

let make_rows (problem : Pb.problem) hard_weight =
  Array.map
    (fun constraint_ ->
      match constraint_ with
      | Pb.Hard { Pb.terms; relation; bound } ->
        { terms; relation; bound; weight = hard_weight; hard = true }
      | Pb.Soft ({ Pb.terms; relation; bound }, weight) ->
        { terms; relation; bound; weight; hard = false })
    problem.Pb.constraints

let make_incidence num_vars rows =
  let var_start = Array.make (num_vars + 1) 0 in
  Array.iter
    (fun row ->
      Array.iter
        (fun (v, _) -> var_start.(v + 1) <- var_start.(v + 1) + 1)
        row.terms)
    rows;
  for v = 1 to num_vars do
    var_start.(v) <- var_start.(v) + var_start.(v - 1)
  done;
  let next = Array.sub var_start 0 num_vars in
  let var_row = Array.make var_start.(num_vars) 0 in
  let var_coeff = Array.make var_start.(num_vars) 0 in
  for r = Array.length rows - 1 downto 0 do
    Array.iter
      (fun (v, coeff) ->
        let k = next.(v) in
        var_row.(k) <- r;
        var_coeff.(k) <- coeff;
        next.(v) <- k + 1)
      rows.(r).terms
  done;
  { var_start; var_row; var_coeff }

let init_state rows incidence num_vars params rng =
  let state =
    {
      rows;
      incidence;
      assignment =
        Array.init num_vars (fun _ ->
            Random.State.float rng 1.0 < params.init_density);
      lhs = Array.make (Array.length rows) 0;
      violated = Array.make (max 1 (Array.length rows)) 0;
      violated_count = 0;
      violated_position = Array.make (max 1 (Array.length rows)) (-1);
      score = 0;
      hard_violation_units = 0;
      last_flip = Array.make (max 1 num_vars) min_int;
    }
  in
  Array.iteri
    (fun r row ->
      let lhs = ref 0 in
      for t = 0 to Array.length row.terms - 1 do
        let v, coeff = row.terms.(t) in
        if state.assignment.(v) then lhs := !lhs + coeff
      done;
      let lhs = !lhs in
      state.lhs.(r) <- lhs;
      let violation = row_violation row lhs in
      if violation > 0 then begin
        state.violated.(state.violated_count) <- r;
        state.violated_position.(r) <- state.violated_count;
        state.violated_count <- state.violated_count + 1;
        state.score <- state.score + (row.weight * violation);
        if row.hard then
          state.hard_violation_units <- state.hard_violation_units + violation
      end)
    rows;
  state

(* Apply the lhs delta of one row after a flip, keeping the violated set,
   score and hard-violation counter in sync. *)
let update_row state r delta =
  let row = state.rows.(r) in
  let old_violation = row_violation row state.lhs.(r) in
  state.lhs.(r) <- state.lhs.(r) + delta;
  let new_violation = row_violation row state.lhs.(r) in
  if old_violation = new_violation then ()
  else begin
    state.score <- state.score + (row.weight * (new_violation - old_violation));
    if row.hard then
      state.hard_violation_units <-
        state.hard_violation_units + new_violation - old_violation;
    if old_violation = 0 then begin
      state.violated.(state.violated_count) <- r;
      state.violated_position.(r) <- state.violated_count;
      state.violated_count <- state.violated_count + 1
    end
    else if new_violation = 0 then begin
      let position = state.violated_position.(r) in
      let last = state.violated_count - 1 in
      let moved = state.violated.(last) in
      state.violated.(position) <- moved;
      state.violated_position.(moved) <- position;
      state.violated_position.(r) <- -1;
      state.violated_count <- last
    end
  end

let flip state v =
  let now = state.assignment.(v) in
  state.assignment.(v) <- not now;
  let { var_start; var_row; var_coeff } = state.incidence in
  for k = var_start.(v) to var_start.(v + 1) - 1 do
    let coeff = var_coeff.(k) in
    update_row state var_row.(k) (if now then -coeff else coeff)
  done

(* Score change if [v] were flipped (without committing). *)
let flip_delta state v =
  let now = state.assignment.(v) in
  let { var_start; var_row; var_coeff } = state.incidence in
  let acc = ref 0 in
  for k = var_start.(v) to var_start.(v + 1) - 1 do
    let r = var_row.(k) and coeff = var_coeff.(k) in
    let row = state.rows.(r) in
    let delta = if now then -coeff else coeff in
    let old_violation = row_violation row state.lhs.(r) in
    let new_violation = row_violation row (state.lhs.(r) + delta) in
    acc := !acc + (row.weight * (new_violation - old_violation))
  done;
  !acc

(* Pick a violated row, preferring hard ones: one draw over the rows of
   the preferred class, where draw [k] takes the [k]-th of them counting
   back from the end of the violated set. [-1] when none is violated. *)
let pick_violated state rng =
  if state.violated_count = 0 then -1
  else begin
    let hard = ref 0 in
    for i = 0 to state.violated_count - 1 do
      if state.rows.(state.violated.(i)).hard then incr hard
    done;
    let want_hard = !hard > 0 in
    let pool = if want_hard then !hard else state.violated_count in
    let k = Random.State.int rng pool in
    let picked = ref (-1) and seen = ref 0 in
    let i = ref (state.violated_count - 1) in
    while !picked < 0 do
      let r = state.violated.(!i) in
      if state.rows.(r).hard = want_hard then begin
        if !seen = k then picked := r;
        incr seen
      end;
      decr i
    done;
    !picked
  end

(* The variable of [row] to flip, or [-1] for an empty row. *)
let choose_variable state params rng flip_number best_score row =
  let terms = state.rows.(row).terms in
  let count = Array.length terms in
  if count = 0 then -1
  else if Random.State.float rng 1.0 < params.noise then
    fst terms.(Random.State.int rng count)
  else begin
    let best = ref (-1) and best_delta = ref 0 in
    for t = 0 to count - 1 do
      let v = fst terms.(t) in
      let delta = flip_delta state v in
      let tabu =
        params.tabu > 0 && flip_number - state.last_flip.(v) <= params.tabu
      in
      (* Aspiration: a tabu move is allowed if it beats the best score
         seen so far. *)
      let allowed = (not tabu) || state.score + delta < best_score in
      if allowed && (!best < 0 || delta < !best_delta) then begin
        best := v;
        best_delta := delta
      end
    done;
    if !best >= 0 then !best else fst terms.(Random.State.int rng count)
  end

let solve ?(params = default_params) (problem : Pb.problem) =
  let rng = Random.State.make [| params.seed |] in
  let num_vars = problem.Pb.num_vars in
  let rows = make_rows problem params.hard_weight in
  let incidence = make_incidence num_vars rows in
  let best_assignment = ref (Array.make (max 1 problem.Pb.num_vars) false) in
  let best_feasible = ref false in
  let best_score = ref max_int in
  let best_hard = ref max_int in
  let total_flips = ref 0 in
  let tries_used = ref 0 in
  let record state =
    let feasible = state.hard_violation_units = 0 in
    let better =
      if feasible && not !best_feasible then true
      else if feasible = !best_feasible then
        state.score < !best_score
        || (state.score = !best_score
            && state.hard_violation_units < !best_hard)
      else false
    in
    if better then begin
      best_assignment := Array.copy state.assignment;
      best_feasible := feasible;
      best_score := state.score;
      best_hard := state.hard_violation_units
    end
  in
  (try
     for _try = 1 to params.max_tries do
       incr tries_used;
       let state = init_state rows incidence num_vars params rng in
       record state;
       let flip_number = ref 0 in
       let continue = ref true in
       while !continue && !flip_number < params.max_flips do
         let row = pick_violated state rng in
         if row < 0 then begin
           (* Every constraint satisfied: global optimum. *)
           record state;
           raise Exit
         end;
         let v =
           choose_variable state params rng !flip_number !best_score row
         in
         if v < 0 then continue := false
         else begin
           flip state v;
           state.last_flip.(v) <- !flip_number;
           incr flip_number;
           incr total_flips;
           record state
         end
       done
     done
   with Exit -> ());
  let assignment = !best_assignment in
  let hard_violations = Pb.hard_violations problem assignment in
  {
    assignment;
    feasible = hard_violations = 0;
    hard_violations;
    soft_cost = Pb.soft_cost problem assignment;
    flips_used = !total_flips;
    tries_used = !tries_used;
  }
