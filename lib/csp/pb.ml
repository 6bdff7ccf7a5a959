type relation = Le | Ge | Eq

type linear = {
  terms : (int * int) array;
  relation : relation;
  bound : int;
}

type constraint_ = Hard of linear | Soft of linear * int

type problem = {
  num_vars : int;
  constraints : constraint_ array;
}

let linear terms relation bound =
  { terms = Array.of_list terms; relation; bound }

let at_most_one vars = linear (List.map (fun v -> (v, 1)) vars) Le 1
let exactly_one vars = linear (List.map (fun v -> (v, 1)) vars) Eq 1

(* One stamp per variable, set to the index of the last constraint that
   named it: a term whose variable already carries the current index is a
   duplicate. Errors come in constraint order; within one, a term's range
   check precedes its duplicate check, and the weight check follows the
   terms. *)
let validate num_vars constraints =
  let stamp = Array.make (max 0 num_vars) (-1) in
  Array.iteri
    (fun c constraint_ ->
      let { terms; _ } = match constraint_ with Hard l | Soft (l, _) -> l in
      Array.iter
        (fun (v, _) ->
          if v < 0 || v >= num_vars then
            invalid_arg (Printf.sprintf "Pb.make: variable %d out of range" v);
          if stamp.(v) = c then
            invalid_arg (Printf.sprintf "Pb.make: duplicate variable %d" v);
          stamp.(v) <- c)
        terms;
      match constraint_ with
      | Soft (_, w) when w <= 0 ->
        invalid_arg "Pb.make: non-positive soft weight"
      | Hard _ | Soft _ -> ())
    constraints

let of_array ~num_vars constraints =
  validate num_vars constraints;
  { num_vars; constraints }

let make ~num_vars constraints =
  of_array ~num_vars (Array.of_list constraints)

let lhs linear assignment =
  let sum = ref 0 in
  for t = 0 to Array.length linear.terms - 1 do
    let v, coeff = linear.terms.(t) in
    if assignment.(v) then sum := !sum + coeff
  done;
  !sum

let violation linear assignment =
  let value = lhs linear assignment in
  match linear.relation with
  | Le -> max 0 (value - linear.bound)
  | Ge -> max 0 (linear.bound - value)
  | Eq -> abs (value - linear.bound)

let satisfied linear assignment = violation linear assignment = 0

let hard_violations problem assignment =
  Array.fold_left
    (fun acc constraint_ ->
      match constraint_ with
      | Hard l -> if satisfied l assignment then acc else acc + 1
      | Soft _ -> acc)
    0 problem.constraints

let soft_cost problem assignment =
  Array.fold_left
    (fun acc constraint_ ->
      match constraint_ with
      | Hard _ -> acc
      | Soft (l, w) -> acc + (w * violation l assignment))
    0 problem.constraints

let feasible problem assignment = hard_violations problem assignment = 0

let pp_relation ppf = function
  | Le -> Format.pp_print_string ppf "<="
  | Ge -> Format.pp_print_string ppf ">="
  | Eq -> Format.pp_print_string ppf "="

let pp_linear ppf { terms; relation; bound } =
  let pp_term ppf (v, coeff) =
    if coeff = 1 then Format.fprintf ppf "x%d" v
    else Format.fprintf ppf "%d*x%d" coeff v
  in
  Format.fprintf ppf "@[<h>%a %a %d@]"
    (Format.pp_print_list
       ~pp_sep:(fun ppf () -> Format.fprintf ppf " + ")
       pp_term)
    (Array.to_list terms) pp_relation relation bound

let pp ppf problem =
  Format.fprintf ppf "@[<v>vars: %d@," problem.num_vars;
  Array.iter
    (function
      | Hard l -> Format.fprintf ppf "%a@," pp_linear l
      | Soft (l, w) -> Format.fprintf ppf "[soft w=%d] %a@," w pp_linear l)
    problem.constraints;
  Format.fprintf ppf "@]"
