(** Longest common subsequence of two int arrays.

    Used by page-template induction, which interns each page's token
    keys into ints and aligns the sequences of template-eligible keys
    across list pages. Classic O(n·m) dynamic program over one flat
    array. *)

val pairs : int array -> int array -> (int * int) list
(** [pairs a b] is an LCS of [a] and [b] as index pairs [(i, j)] with
    [a.(i) = b.(j)], strictly increasing in both components. Where two
    alignments are equally long the walk prefers advancing in [a], so the
    result is a fixed function of the inputs. *)

val common : int array -> int array -> int array
(** The elements of {!pairs}, in order. *)

val length : int array -> int array -> int
