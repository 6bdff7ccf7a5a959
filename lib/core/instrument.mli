(** Stage-timing instrumentation bus.

    The pipeline and both segmentation engines report how long each stage
    took (tokenize, template induction, observation building, CSP solve,
    HMM solve split into its EM sweeps and its decode; the navigator adds
    the crawl) through this bus. With no
    subscriber the overhead is one atomic load per stage — the engines
    stay dependency-free and a serving layer ({!Tabseg_serve.Metrics})
    can turn the events into latency histograms.

    Subscribers may be called concurrently from several domains; they
    must be thread-safe. *)

type event = {
  stage : string;
      (** dotted stage name, e.g. ["pipeline.template"] or ["segment.csp"] *)
  seconds : float;  (** wall-clock duration of this stage execution *)
}

type subscription

val subscribe : (event -> unit) -> subscription
(** Register a listener for every stage event, from any domain. *)

val unsubscribe : subscription -> unit
(** Remove a listener; idempotent. *)

val time : stage:string -> (unit -> 'a) -> 'a
(** [time ~stage f] runs [f ()]; if any subscriber is registered, the
    wall-clock duration is reported under [stage] (also when [f]
    raises). Without subscribers, [f] is called directly. *)

val stages : string list
(** The stage names emitted by the library itself, for discovery. *)
