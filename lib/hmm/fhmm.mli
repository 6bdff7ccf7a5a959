(** Inference over a position-dependent hidden-state lattice — the
    computational core of the paper's factored-HMM segmenter (Section 5).

    The admissible states may differ at every position (the detail-page
    constraints restrict [R_i] to [D_i]), which is how the bootstrap
    information enters the model. All probabilities are log-space.

    {b Representation.} A lattice is flat and sparse. The states of
    position [i] are numbered [0 .. size i - 1] locally and
    [first.(i) .. first.(i + 1) - 1] globally. Every state of a position
    [i ≥ 1] lists its predecessors: the states at [i - 1] that may move
    into it, in ascending order. Each such pair is an {e edge}; the edges
    into global state [g] are [pred_first.(g) .. pred_first.(g + 1) - 1].
    A pair that is not an edge has probability zero.

    The structure (sizes and edges) is built once by {!create}. The three
    float arrays — [init], [emit] and [weight] — are then written in place
    by the caller, once per EM iteration, and read by {!forward_backward}
    and {!viterbi}. Nothing is allocated per state, per edge or per
    iteration: posteriors go into a {!workspace} made once per lattice.

    {b Cost.} One forward, backward or Viterbi pass costs O(S + E) for S
    states and E edges, against O(S²) for a dense lattice. For the
    paper's Period model within-record moves have one predecessor and
    only record ends precede record starts, so a position costs
    O(S + |D_{i-1}|·|D_i|·k²) for column bound [k].

    {b Order.} Sums and maxima over predecessors run in ascending index
    order. Terms are associated as [(logsumexp (alpha + weight)) + emit]
    in the forward pass, [weight + (emit + beta)] in the backward pass
    and [score + (weight + emit)] in Viterbi. Terms of zero probability
    contribute no bits to an ordered log-sum-exp and never win a strict
    maximum, so the results equal those of a dense lattice that holds
    [log 0] on every non-edge, bit for bit. *)

type t = private {
  length : int;  (** number of positions *)
  first : int array;
      (** [length + 1] entries: global index of each position's first
          state, then the total state count *)
  pred_first : int array;
      (** [states + 1] entries: index of each state's first incoming edge,
          then the total edge count; empty for the states of position 0 *)
  pred : int array;  (** per edge: global index of its source state *)
  init : float array;  (** per state of position 0: log prior *)
  emit : float array;  (** per state: log emission *)
  weight : float array;  (** per edge: log transition probability *)
}

val create : sizes:int array -> preds:(int -> int -> (int -> unit) -> unit) -> t
(** [create ~sizes ~preds] builds the structure of a lattice with
    [Array.length sizes] positions, [sizes.(i)] states at position [i].
    [preds i s add] must call [add p] for every predecessor [p] (a local
    index at [i - 1]) of local state [s] at position [i ≥ 1], in strictly
    ascending order. Every float is initialized to [log 0].
    @raise Invalid_argument on an out-of-range or unordered predecessor. *)

val states : t -> int
(** Total state count. *)

type workspace
(** Posterior buffers sized for one lattice, reused across EM iterations. *)

val workspace : t -> workspace

val forward_backward : t -> workspace -> bool
(** Fill the workspace with posteriors under the lattice's current
    weights; [false] when the lattice admits no path of positive
    probability (the workspace is then unspecified). *)

val log_likelihood : workspace -> float
(** Log probability of the observations, summed over all paths. *)

val gamma : workspace -> float array
(** Per global state: its posterior probability (linear space). *)

val xi : workspace -> float array
(** Per edge: the posterior probability (linear space) that the path
    takes it. *)

val viterbi : t -> int array option
(** The maximum a posteriori path as local state indices, or [None] when
    every path has zero probability. Ties go to the lowest predecessor
    and the lowest final state. *)

val path_log_prob : t -> int array -> float
(** Log joint probability of a path of local state indices ([log 0] if it
    uses a non-edge). *)
