(** Typed partial-result events of a segmentation stream.

    A stream is one site's page sequence in crawl order. Every
    segment-flagged list page opens a {e unit} — one segmentation problem
    whose detail evidence is the detail pages that follow it. The engine
    emits [Record] events as soon as a unit's evidence is complete and its
    segmentation solved, so a consumer sees the first records while the
    crawler is still yielding later pages. [Unit_done] carries the full
    per-unit outcome — the same value the batch path computes — so folding
    the event stream reproduces batch results byte for byte. *)

(* The payload of the reserved [Template_refined] event. *)
type progress = {
  pages_seen : int;  (** head list pages observed so far *)
  template_size : int;  (** estimated template size (monotone, narrowing) *)
  slot_count : int;  (** estimated slot count on the first page *)
  boundaries_changed : bool;
      (** true when the estimated slot boundaries moved since the last
          estimate — the only progress events worth re-rendering *)
}

type event =
  | Template_refined of progress
      (** reserved: nothing emits it. Units re-induce the template over
          the sealed head, so no consumer needs a live estimate. *)
  | Record of { unit_index : int; record : Tabseg.Segmentation.record }
      (** a record whose detail evidence is complete, in stream order *)
  | Unit_done of {
      unit_index : int;
      outcome : (Tabseg.Api.result, Tabseg.Api.input_error) result;
    }  (** a unit's full batch-identical outcome *)

type summary = {
  units : int;  (** segment-flagged list pages seen *)
  records : int;  (** records emitted across all units *)
  head_pages : int;  (** list pages retained for template induction *)
  live_tokens_hwm : int;  (** high watermark of {!Budget} live tokens *)
}
