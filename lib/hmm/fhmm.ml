type t = {
  length : int;
  first : int array;
  pred_first : int array;
  pred : int array;
  init : float array;
  emit : float array;
  weight : float array;
}

let create ~sizes ~preds =
  let length = Array.length sizes in
  let first = Array.make (length + 1) 0 in
  Array.iteri
    (fun i size ->
      if size < 0 then invalid_arg "Fhmm.create: negative size";
      first.(i + 1) <- first.(i) + size)
    sizes;
  let total = first.(length) in
  (* Position 0 has no incoming edges, so its states keep the all-zero
     default of [pred_first]. *)
  let pred_first = Array.make (total + 1) 0 in
  let pred = ref (Array.make (max 16 total) 0) in
  let count = ref 0 in
  for i = 1 to length - 1 do
    for s = 0 to sizes.(i) - 1 do
      pred_first.(first.(i) + s) <- !count;
      let previous = ref (-1) in
      preds i s (fun p ->
          if p <= !previous || p >= sizes.(i - 1) then
            invalid_arg "Fhmm.create: predecessors must ascend within range";
          previous := p;
          if !count = Array.length !pred then begin
            let grown = Array.make (2 * !count) 0 in
            Array.blit !pred 0 grown 0 !count;
            pred := grown
          end;
          !pred.(!count) <- first.(i - 1) + p;
          incr count)
    done
  done;
  pred_first.(total) <- !count;
  {
    length;
    first;
    pred_first;
    pred = Array.sub !pred 0 !count;
    init = Array.make (if length = 0 then 0 else sizes.(0)) Logspace.zero;
    emit = Array.make total Logspace.zero;
    weight = Array.make !count Logspace.zero;
  }

let states t = t.first.(t.length)
let edges t = Array.length t.pred

type workspace = {
  alpha : float array;
  beta : float array;
  gamma : float array;
  xi : float array;
  total : float array;  (* backward pass: per-state running sums *)
  mutable log_likelihood : float;
}

let workspace t =
  let widest = ref 0 in
  for i = 0 to t.length - 1 do
    widest := max !widest (t.first.(i + 1) - t.first.(i))
  done;
  let n = states t in
  {
    alpha = Array.make n Logspace.zero;
    beta = Array.make n Logspace.zero;
    gamma = Array.make n 0.;
    xi = Array.make (edges t) 0.;
    total = Array.make !widest 0.;
    log_likelihood = Logspace.zero;
  }

let log_likelihood w = w.log_likelihood
let gamma w = w.gamma
let xi w = w.xi

(* All log-sum-exps below are two ordered passes, a running maximum and
   then [acc +. exp (v -. max)] from [0.], exactly as [Logspace.sum]
   computes them. A [log 0] term adds [exp neg_infinity = 0.] to the sum
   and never raises the maximum, so skipping it changes no bit. *)

let forward t alpha =
  for g = 0 to t.first.(1) - 1 do
    alpha.(g) <- t.init.(g) +. t.emit.(g)
  done;
  for i = 1 to t.length - 1 do
    for g = t.first.(i) to t.first.(i + 1) - 1 do
      let emit = t.emit.(g) in
      let lo = t.pred_first.(g) and hi = t.pred_first.(g + 1) - 1 in
      let maximum = ref Logspace.zero in
      if emit > Logspace.zero then
        for e = lo to hi do
          let v = alpha.(t.pred.(e)) +. t.weight.(e) in
          if v > !maximum then maximum := v
        done;
      if !maximum = Logspace.zero then alpha.(g) <- Logspace.zero
      else begin
        let sum = ref 0. in
        for e = lo to hi do
          sum := !sum +. exp (alpha.(t.pred.(e)) +. t.weight.(e) -. !maximum)
        done;
        alpha.(g) <- !maximum +. log !sum +. emit
      end
    done
  done

(* beta at position [i] from position [i + 1]. Each edge is visited from
   its target, in ascending target order, so every source state sees its
   successors in ascending order: the same order as a per-source loop.
   The beta slots of position [i] hold the running maxima meanwhile. *)
let backward_step t w i =
  let beta = w.beta and total = w.total in
  let base = t.first.(i) in
  for g = base to t.first.(i + 1) - 1 do
    beta.(g) <- Logspace.zero;
    total.(g - base) <- 0.
  done;
  let targets = t.first.(i + 1) and stop = t.first.(i + 2) - 1 in
  for q = targets to stop do
    let tail = t.emit.(q) +. beta.(q) in
    if tail > Logspace.zero then
      for e = t.pred_first.(q) to t.pred_first.(q + 1) - 1 do
        let p = t.pred.(e) in
        let v = t.weight.(e) +. tail in
        if v > beta.(p) then beta.(p) <- v
      done
  done;
  for q = targets to stop do
    let tail = t.emit.(q) +. beta.(q) in
    if tail > Logspace.zero then
      for e = t.pred_first.(q) to t.pred_first.(q + 1) - 1 do
        let p = t.pred.(e) in
        let maximum = beta.(p) in
        if maximum > Logspace.zero then
          total.(p - base) <-
            total.(p - base) +. exp (t.weight.(e) +. tail -. maximum)
      done
  done;
  for g = base to t.first.(i + 1) - 1 do
    if beta.(g) > Logspace.zero then
      beta.(g) <- beta.(g) +. log total.(g - base)
  done

let forward_backward t w =
  if t.length = 0 then begin
    w.log_likelihood <- Logspace.one;
    true
  end
  else begin
    forward t w.alpha;
    let last = t.length - 1 in
    let alpha = w.alpha in
    let maximum = ref Logspace.zero in
    for g = t.first.(last) to t.first.(t.length) - 1 do
      if alpha.(g) > !maximum then maximum := alpha.(g)
    done;
    if !maximum = Logspace.zero then false
    else begin
      let sum = ref 0. in
      for g = t.first.(last) to t.first.(t.length) - 1 do
        sum := !sum +. exp (alpha.(g) -. !maximum)
      done;
      let log_likelihood = !maximum +. log !sum in
      w.log_likelihood <- log_likelihood;
      let beta = w.beta in
      for g = t.first.(last) to t.first.(t.length) - 1 do
        beta.(g) <- Logspace.one
      done;
      for i = last - 1 downto 0 do
        backward_step t w i
      done;
      for g = 0 to states t - 1 do
        w.gamma.(g) <- exp (alpha.(g) +. beta.(g) -. log_likelihood)
      done;
      for q = t.first.(1) to states t - 1 do
        let tail = t.emit.(q) +. beta.(q) in
        for e = t.pred_first.(q) to t.pred_first.(q + 1) - 1 do
          w.xi.(e) <-
            exp (alpha.(t.pred.(e)) +. (t.weight.(e) +. tail) -. log_likelihood)
        done
      done;
      true
    end
  end

let viterbi t =
  if t.length = 0 then Some [||]
  else begin
    let n = states t in
    let score = Array.make n Logspace.zero in
    let back = Array.make n (-1) in
    for g = 0 to t.first.(1) - 1 do
      score.(g) <- t.init.(g) +. t.emit.(g)
    done;
    for i = 1 to t.length - 1 do
      for g = t.first.(i) to t.first.(i + 1) - 1 do
        let emit = t.emit.(g) in
        if emit > Logspace.zero then
          for e = t.pred_first.(g) to t.pred_first.(g + 1) - 1 do
            let p = t.pred.(e) in
            let candidate = score.(p) +. (t.weight.(e) +. emit) in
            if candidate > score.(g) then begin
              score.(g) <- candidate;
              back.(g) <- p
            end
          done
      done
    done;
    let last = t.length - 1 in
    let best = ref (-1) and best_score = ref Logspace.zero in
    for g = t.first.(last) to n - 1 do
      if score.(g) > !best_score then begin
        best := g;
        best_score := score.(g)
      end
    done;
    if !best < 0 then None
    else begin
      let path = Array.make t.length 0 in
      let cursor = ref !best in
      for i = last downto 0 do
        path.(i) <- !cursor - t.first.(i);
        cursor := back.(!cursor)
      done;
      Some path
    end
  end

let path_log_prob t path =
  if Array.length path <> t.length then
    invalid_arg "Fhmm.path_log_prob: length mismatch";
  if t.length = 0 then Logspace.one
  else begin
    let total = ref (Logspace.mul t.init.(path.(0)) t.emit.(path.(0))) in
    for i = 1 to t.length - 1 do
      let p = t.first.(i - 1) + path.(i - 1) and g = t.first.(i) + path.(i) in
      let weight = ref Logspace.zero in
      for e = t.pred_first.(g) to t.pred_first.(g + 1) - 1 do
        if t.pred.(e) = p then weight := t.weight.(e)
      done;
      total := Logspace.mul !total (Logspace.mul !weight t.emit.(g))
    done;
    !total
  end
