(** The shared front half of both segmentation methods (paper Sections
    3.1–3.2): tokenize the pages, induce the page template, locate the table
    slot (falling back to the entire page when the template is poor), cut
    the slot into extracts and build the observation table against the
    detail pages. *)

open Tabseg_token
open Tabseg_template
open Tabseg_extract

type input = {
  list_pages : string list;
      (** raw HTML of the site's list pages; the {e first} one is the page
          to segment, the rest only support template induction and the
          all-list-pages filter. *)
  detail_pages : string list;
      (** raw HTML of the detail pages linked from the first list page, in
          link (= record) order *)
}

type config = {
  min_template_tokens : int;
      (** below this template size the template is deemed a failure
          (default 10) *)
  min_slot_cover : float;
      (** the table slot must hold at least this fraction of all slot words,
          else the template is deemed a failure (default 0.8 — a lower
          value lets a template token that leaked into the data region
          silently truncate the table) *)
}

val default_config : config

type template_cache = {
  find_template : key:string -> Template.t option;
  store_template : key:string -> Template.t -> unit;
}
(** An externally-provided store for induced page templates — the hook a
    serving layer (e.g. [Tabseg_serve.Cache]) uses to amortize template
    induction, the dominant cost of the front half, across requests. The
    key is {!page_set_key} of the raw list pages, so a hit is guaranteed
    to be the template this input would have induced. Implementations
    must be safe to call from several domains. *)

val page_set_key : string list -> string
(** Content address (hex digest) of an {e ordered} list-page set: the
    cache key under which {!prepare} looks up the induced template. *)

type prepared = {
  page : Token.t array;  (** token stream of the list page to segment *)
  table_slot : Slot.t;
  observation : Observation.t;
  notes : Segmentation.note list;
      (** [Template_problem] and/or [Entire_page_used], when applicable *)
  template_size : int;  (** tokens in the induced template; 0 if none *)
}

val locate_table :
  ?config:config ->
  ?cached:template_cache * string ->
  Token.t array list ->
  Slot.t * Segmentation.note list * int
(** [locate_table pages] locates the table slot on the first of the
    tokenized list [pages], using a template induced over all of them
    (paper Section 3.1). The result is the table slot, the fallback
    notes and the template size (0 when fewer than two pages leave
    nothing to induce). When the template is unusable — too small, no
    table slot, or a table slot holding less than [min_slot_cover] of
    the slot words — the slot is the entire first page and the notes are
    [[Template_problem; Entire_page_used]] (paper notes a/b); otherwise
    the notes are empty. With [~cached:(cache, key)] the template is
    looked up under [key] (the {!page_set_key} of the raw pages) before
    it is induced, and stored after. Induction emits the
    [pipeline.template] stage event.
    @raise Invalid_argument if [pages] is empty. *)

val prepare : ?config:config -> ?template_cache:template_cache -> input -> prepared
(** Run the front half. With [~template_cache], template induction is
    skipped when the cache already holds the template of this list-page
    set; the result is identical either way.
    @raise Invalid_argument if [list_pages] is empty. *)
