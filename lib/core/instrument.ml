type event = {
  stage : string;
  seconds : float;
}

type subscription = int

(* The subscriber list is read on every instrumented stage and written
   only on (un)subscribe, so it lives in an atomic holding an immutable
   association list: readers never lock, writers CAS. *)
let subscribers : (int * (event -> unit)) list Atomic.t = Atomic.make []
let next_id = Atomic.make 0

let rec update f =
  let current = Atomic.get subscribers in
  if not (Atomic.compare_and_set subscribers current (f current)) then
    update f

let subscribe listener =
  let id = Atomic.fetch_and_add next_id 1 in
  update (fun current -> (id, listener) :: current);
  id

let unsubscribe id = update (List.remove_assoc id)

let emit stage seconds =
  List.iter
    (fun (_, listener) -> listener { stage; seconds })
    (Atomic.get subscribers)

let time ~stage f =
  if Atomic.get subscribers = [] then f ()
  else begin
    let started = Unix.gettimeofday () in
    Fun.protect
      ~finally:(fun () -> emit stage (Unix.gettimeofday () -. started))
      f
  end

let stages =
  [ "crawl"; "pipeline.tokenize"; "pipeline.template"; "pipeline.extract";
    "segment.csp"; "segment.hmm"; "segment.hmm.em"; "segment.hmm.decode" ]
