(** Pseudo-boolean constraint problems: 0–1 variables under linear
    constraints (paper Section 4), the input language of {!Wsat_oip} and
    {!Exact}.

    A constraint is [Σ coeff_v · x_v ⋈ bound] with [⋈ ∈ {≤, ≥, =}].
    Constraints are {e hard} (must hold) or {e soft} (violations are
    penalized by a weight; the solver minimizes total penalty) — soft
    constraints realize the paper's "relaxed" mode and over-constrained
    integer programming generally. *)

type relation = Le | Ge | Eq

type linear = {
  terms : (int * int) array;  (** (variable, coefficient) pairs *)
  relation : relation;
  bound : int;
}

type constraint_ = Hard of linear | Soft of linear * int
(** A soft constraint carries a positive weight: the penalty incurred per
    unit of violation. *)

type problem = {
  num_vars : int;
  constraints : constraint_ array;
}

val make : num_vars:int -> constraint_ list -> problem
(** @raise Invalid_argument on a variable outside [0, num_vars), a
    duplicate variable within one constraint, or a non-positive soft
    weight. Constraints are checked in order; within one, each term's
    range is checked before its duplication, and the weight after the
    terms. *)

val of_array : num_vars:int -> constraint_ array -> problem
(** {!make} over an array, which the problem keeps as its constraints. *)

val linear : (int * int) list -> relation -> int -> linear

val at_most_one : int list -> linear
(** [Σ x_v ≤ 1]. *)

val exactly_one : int list -> linear
(** [Σ x_v = 1]. *)

val violation : linear -> bool array -> int
(** By how much the assignment violates the constraint (0 when satisfied):
    for [≤] the excess above the bound, for [≥] the shortfall, for [=] the
    absolute difference. *)

val satisfied : linear -> bool array -> bool

val hard_violations : problem -> bool array -> int
(** Number of violated hard constraints. *)

val soft_cost : problem -> bool array -> int
(** Total weighted violation of soft constraints. *)

val feasible : problem -> bool array -> bool
(** All hard constraints satisfied. *)

val pp_linear : Format.formatter -> linear -> unit
val pp : Format.formatter -> problem -> unit
