(** The observation table (paper Table 1 and Table 3): for each extract
    [E_i] of the table slot, the set [D_i] of detail pages on which it was
    observed and the positions of those observations.

    Extracts that appear on {e all} list pages or on {e all} detail pages
    carry no segmentation signal and are dropped (Section 3.2); extracts
    observed on no detail page cannot be constrained and are set aside —
    after segmentation they are attached to the record of the last assigned
    extract preceding them (Section 6.2). *)

open Tabseg_token

type entry = {
  extract : Extract.t;
  pages : int list;  (** [D_i]: detail-page indices, ascending, non-empty *)
  positions : (int * int) list;
      (** (detail page, token position) of every observation *)
}

type t = {
  entries : entry array;  (** the usable extracts, in stream order *)
  extras : Extract.t list;
      (** extracts set aside (no detail match, or filtered as
          uninformative), in stream order *)
  num_details : int;
}

val build :
  ?other_list_pages:Token.t array list ->
  extracts:Extract.t list ->
  details:Token.t array list ->
  unit ->
  t
(** Build the observation table in one call: {!start}, {!add_detail} for
    each of [details], then {!finish}. [other_list_pages] enables the
    "appears on all list pages" filter (the extract must also occur on every
    one of them to be dropped). *)

type builder
(** An observation table under construction, fed one detail page at a
    time — the incremental form of {!build}, for callers (such as a
    stream engine) that must not hold every detail page at once. *)

val start :
  ?other_list_indices:Matching.detail_index list ->
  extracts:Extract.t list ->
  unit ->
  builder
(** Begin a table over [extracts]. [other_list_indices] are the indexed
    other list pages that enable the "appears on all list pages" filter;
    they are taken as already built so several tables can share them. *)

val add_detail : builder -> Token.t array -> unit
(** Match every extract against the next detail page, in record order.
    The builder keeps the matches, not the page: the caller may drop the
    tokens as soon as this returns. *)

val finish : builder -> t
(** The observation table of the detail pages added so far, equal to
    {!build} over the same extracts, other list pages and details. *)

val candidate_count : t -> int
(** Total number of (extract, candidate record) pairs — the number of
    variables a CSP encoding will create. *)

val pages_covered : t -> int
(** How many distinct detail pages are matched by at least one entry —
    used by the template-quality fallback check. *)

val pp : Format.formatter -> t -> unit
(** Render the observation table in the style of the paper's Table 1. *)

val pp_positions : Format.formatter -> t -> unit
(** Render the position table in the style of the paper's Table 3. *)
