open Tabseg_extract
open Tabseg_hmm

type variant = Base | Period

type decoder = Map_decoding | Posterior_decoding

type config = {
  variant : variant;
  decoder : decoder;
  em_iterations : int;
  tolerance : float;
  max_columns : int;
  gap_penalty : float;
  restart_penalty : float;
  smoothing : float;
}

let default_config =
  {
    variant = Period;
    decoder = Map_decoding;
    em_iterations = 10;
    tolerance = 1e-3;
    max_columns = 12;
    gap_penalty = log 0.1;
    restart_penalty = -25.;
    smoothing = 0.1;
  }

let base_config = { default_config with variant = Base }

type diagnostics = {
  iterations : int;
  log_likelihood : float;
  columns_bound : int;
  period_distribution : float array option;
  emission_profiles : (int * float array) list;
}

(* Shared problem data extracted from the observation table. *)
type data = {
  n : int;  (* number of constrained extracts *)
  num_records : int;
  candidates : int array array;  (* D_i as arrays *)
  type_masks : int array;  (* T_i *)
  k : int;  (* column bound *)
}

let make_data config observation =
  let entries = observation.Observation.entries in
  let n = Array.length entries in
  let candidates =
    Array.map (fun e -> Array.of_list e.Observation.pages) entries
  in
  let type_masks =
    Array.map (fun e -> e.Observation.extract.Extract.types) entries
  in
  let num_records = observation.Observation.num_details in
  (* Bound on columns: the largest number of extracts observed on one
     detail page (paper Section 3.4). *)
  let per_page = Array.make (max 1 num_records) 0 in
  Array.iter
    (fun e ->
      List.iter
        (fun j -> per_page.(j) <- per_page.(j) + 1)
        e.Observation.pages)
    entries;
  let k =
    Array.fold_left max 1 per_page |> min config.max_columns |> min (max 1 n)
  in
  { n; num_records; candidates; type_masks; k }

(* ------------------------------------------------------------------ *)
(* The lattice: built once per site, reweighted each EM iteration.     *)
(* ------------------------------------------------------------------ *)

(* The admissible states and their predecessors depend only on the
   detail sets D_i and the bound k, which EM does not change, so both
   variants build their sparse lattice once per site. Each state's
   decoded fields sit in flat arrays indexed like the lattice's global
   states. *)
type lattice = {
  fhmm : Fhmm.t;
  record : int array;  (* per state: record number r *)
  column : int array;
      (* per state: column label c (Base) or position m within the record
         (Period) *)
  span : int array;  (* per state: record length ℓ (Period; 0 for Base) *)
  cell : int array;  (* per state: index of its emission distribution *)
  masks : int array;  (* the distinct type masks T_i of the site *)
  mask_slot : int array;  (* per position: index of T_i in [masks] *)
  emission_table : float array;
      (* per (mask slot, cell): log emission, refilled each iteration *)
}

(* Position [i] holds one block of states per candidate record in D_i,
   in D_i order; [block i] states each, whose local index [j] decodes to
   [(column, span)]. *)
let build data ~cells ~block ~decode ~cell_of ~preds =
  let sizes =
    Array.init data.n (fun i -> Array.length data.candidates.(i) * block i)
  in
  let fhmm = Fhmm.create ~sizes ~preds in
  let total = Fhmm.states fhmm in
  let record = Array.make total 0 and column = Array.make total 0 in
  let span = Array.make total 0 and cell = Array.make total 0 in
  for i = 0 to data.n - 1 do
    let size = block i in
    for s = 0 to sizes.(i) - 1 do
      let g = fhmm.Fhmm.first.(i) + s in
      let c, l = decode i (s mod size) in
      record.(g) <- data.candidates.(i).(s / size);
      column.(g) <- c;
      span.(g) <- l;
      cell.(g) <- cell_of c l
    done
  done;
  let slots = Hashtbl.create 16 in
  let mask_slot =
    Array.map
      (fun mask ->
        match Hashtbl.find_opt slots mask with
        | Some slot -> slot
        | None ->
          let slot = Hashtbl.length slots in
          Hashtbl.add slots mask slot;
          slot)
      data.type_masks
  in
  let masks = Array.make (Hashtbl.length slots) 0 in
  Hashtbl.iter (fun mask slot -> masks.(slot) <- mask) slots;
  {
    fhmm; record; column; span; cell; masks; mask_slot;
    emission_table = Array.make (Array.length masks * cells) Logspace.zero;
  }

(* Every state's log emission, computed once per (distinct mask, cell). *)
let fill_emissions lattice emission =
  let cells = Array.length emission in
  Array.iteri
    (fun slot mask ->
      for cell = 0 to cells - 1 do
        lattice.emission_table.((slot * cells) + cell) <-
          Dist.bernoulli_log_prob emission.(cell) mask
      done)
    lattice.masks;
  let fhmm = lattice.fhmm in
  for i = 0 to fhmm.Fhmm.length - 1 do
    let row = lattice.mask_slot.(i) * cells in
    for g = fhmm.Fhmm.first.(i) to fhmm.Fhmm.first.(i + 1) - 1 do
      fhmm.Fhmm.emit.(g) <- lattice.emission_table.(row + lattice.cell.(g))
    done
  done

(* [f e p g] for every edge [e], from state [p] into state [g]. *)
let iter_edges lattice f =
  let fhmm = lattice.fhmm in
  for g = fhmm.Fhmm.first.(min 1 fhmm.Fhmm.length) to Fhmm.states fhmm - 1 do
    for e = fhmm.Fhmm.pred_first.(g) to fhmm.Fhmm.pred_first.(g + 1) - 1 do
      f e fhmm.Fhmm.pred.(e) g
    done
  done

(* The log weight of a record start at record [r] after a record that
   ended at record [r']: a forward jump pays the gap penalty for every
   skipped record number, anything else the restart penalty. *)
let[@inline] start_weight config start r r' =
  if r > r' then start +. (config.gap_penalty *. float_of_int (r - r' - 1))
  else config.restart_penalty +. start

(* Expected emission counts per cell — total mass and per-bit on-mass,
   accumulated in position then state order — turned into smoothed
   Bernoulli estimates. *)
let estimate_emissions config data lattice gamma cells =
  let emission_on = Array.make_matrix cells 8 0. in
  let emission_total = Array.make cells 0. in
  let fhmm = lattice.fhmm in
  for i = 0 to data.n - 1 do
    let mask = data.type_masks.(i) in
    for g = fhmm.Fhmm.first.(i) to fhmm.Fhmm.first.(i + 1) - 1 do
      let p = gamma.(g) and cell = lattice.cell.(g) in
      emission_total.(cell) <- emission_total.(cell) +. p;
      for bit = 0 to 7 do
        if mask land (1 lsl bit) <> 0 then
          emission_on.(cell).(bit) <- emission_on.(cell).(bit) +. p
      done
    done
  done;
  Array.init cells (fun cell ->
      Dist.bernoulli_estimate ~alpha:config.smoothing
        ~on_counts:emission_on.(cell) ~total:emission_total.(cell) ())

(* [f e p g] for every edge [e] from [p] into a state [g] of position
   [i ≥ 1] whose posterior mass exceeds 1e-12: targets descending, and
   sources descending within a target. The M-step's sums are taken in
   this order. *)
let iter_transitions lattice xi i f =
  let fhmm = lattice.fhmm in
  for g = fhmm.Fhmm.first.(i + 1) - 1 downto fhmm.Fhmm.first.(i) do
    for e = fhmm.Fhmm.pred_first.(g + 1) - 1 downto fhmm.Fhmm.pred_first.(g) do
      if xi.(e) > 1e-12 then f e fhmm.Fhmm.pred.(e) g
    done
  done

(* ------------------------------------------------------------------ *)
(* Base variant: states are (record, column label).                    *)
(* ------------------------------------------------------------------ *)

module Base_model = struct
  type t = {
    trans : Dist.categorical array;  (* row c' -> distribution over c *)
    emission : Dist.bernoulli_vector array;  (* per column *)
  }

  (* Row c' may go to column 0 (record start) or any c > c' (within
     record). *)
  let allowed_targets k c' =
    0 :: List.filter (fun c -> c > c') (List.init k (fun c -> c))

  let initial data =
    let k = data.k in
    let trans =
      Array.init k (fun c' ->
          let weights = Array.make k 0. in
          List.iter
            (fun c ->
              weights.(c) <-
                (if c = 0 then 0.3
                 else 0.7 *. (0.5 ** float_of_int (c - c' - 1))))
            (allowed_targets k c');
          Dist.of_weights weights)
    in
    let emission =
      Array.init k (fun _ -> Dist.bernoulli_uniform ~bits:8 ~p:0.125)
    in
    { trans; emission }

  (* Position 0 holds one state per record, column 0; every other
     position holds columns 0..k-1 per record. A column c > 0 continues
     its own record from any smaller column; column 0 starts a record
     after any state. *)
  let lattice data =
    let k = data.k in
    let block i = if i = 0 then 1 else k in
    build data ~cells:k ~block
      ~decode:(fun _ j -> (j, 0))
      ~cell_of:(fun c _ -> c)
      ~preds:(fun i s add ->
        let previous = data.candidates.(i - 1) in
        let c = s mod k in
        if c = 0 then
          for p = 0 to (Array.length previous * block (i - 1)) - 1 do
            add p
          done
        else
          let r = data.candidates.(i).(s / k) in
          Array.iteri
            (fun b r' ->
              if r' = r then
                if i = 1 then add b
                else
                  for c' = 0 to c - 1 do
                    add ((b * k) + c')
                  done)
            previous)

  let reweight config lattice model =
    let { Fhmm.init; weight; _ } = lattice.fhmm in
    for g = 0 to Array.length init - 1 do
      init.(g) <- config.gap_penalty *. float_of_int lattice.record.(g)
    done;
    fill_emissions lattice model.emission;
    iter_edges lattice (fun e p g ->
        let c' = lattice.column.(p) and c = lattice.column.(g) in
        weight.(e) <-
          (if c > 0 then Dist.log_prob model.trans.(c') c
           else
             start_weight config
               (Dist.log_prob model.trans.(c') 0)
               lattice.record.(g) lattice.record.(p)))

  let m_step config data lattice workspace =
    let k = data.k in
    let trans_counts = Array.make_matrix k k 0. in
    let xi = Fhmm.xi workspace in
    for i = 1 to data.n - 1 do
      iter_transitions lattice xi i (fun e p g ->
          let c' = lattice.column.(p) and c = lattice.column.(g) in
          let target =
            if lattice.record.(g) = lattice.record.(p) && c > c' then c else 0
          in
          trans_counts.(c').(target) <- trans_counts.(c').(target) +. xi.(e))
    done;
    let trans =
      Array.init k (fun c' ->
          let weights = Array.make k 0. in
          List.iter
            (fun c -> weights.(c) <- trans_counts.(c').(c) +. config.smoothing)
            (allowed_targets k c');
          Dist.of_weights weights)
    in
    {
      trans;
      emission =
        estimate_emissions config data lattice (Fhmm.gamma workspace) k;
    }
end

(* ------------------------------------------------------------------ *)
(* Period variant: states are (record, position m, record length ℓ).   *)
(* ------------------------------------------------------------------ *)

module Period_model = struct
  type t = {
    period : Dist.categorical;  (* over ℓ-1 in 0..k-1 *)
    emission : Dist.bernoulli_vector array;  (* indexed (ℓ-1)*k + m *)
  }

  let emission_index data m l = (((l - 1) * data.k) + m)

  let initial data =
    {
      period = Dist.uniform data.k;
      emission =
        Array.init (data.k * data.k) (fun _ ->
            Dist.bernoulli_uniform ~bits:8 ~p:0.125);
    }

  (* Position 0 holds each record's starts (m = 0) for ℓ = 1..k; every
     other position holds all k(k+1)/2 pairs m < ℓ per record, ℓ
     descending and m descending within ℓ. Within a record the position
     advances deterministically, so m > 0 has the one predecessor
     (m - 1, ℓ) of the same record; a start (m = 0) follows any record
     end (m' = ℓ' - 1). *)
  let lattice data =
    let k = data.k in
    let pairs = k * (k + 1) / 2 in
    let index l m = pairs - 1 - ((l * (l - 1) / 2) + m) in
    let block i = if i = 0 then k else pairs in
    let order = Array.make pairs (0, 0) in
    for l = 1 to k do
      for m = 0 to l - 1 do
        order.(index l m) <- (m, l)
      done
    done;
    build data ~cells:(k * k) ~block
      ~decode:(fun i j -> if i = 0 then (0, j + 1) else order.(j))
      ~cell_of:(fun m l -> emission_index data m l)
      ~preds:(fun i s add ->
        let previous = data.candidates.(i - 1) in
        let m, l = order.(s mod pairs) in
        if m = 0 then
          Array.iteri
            (fun b _ ->
              if i = 1 then add (b * k)
              else
                for l' = k downto 1 do
                  add ((b * pairs) + index l' (l' - 1))
                done)
            previous
        else
          let r = data.candidates.(i).(s / pairs) in
          Array.iteri
            (fun b r' ->
              if r' = r then
                if i > 1 then add ((b * pairs) + index l (m - 1))
                else if m = 1 then add ((b * k) + l - 1))
            previous)

  let reweight config lattice model =
    let { Fhmm.init; weight; _ } = lattice.fhmm in
    for g = 0 to Array.length init - 1 do
      init.(g) <-
        (config.gap_penalty *. float_of_int lattice.record.(g))
        +. Dist.log_prob model.period (lattice.span.(g) - 1)
    done;
    fill_emissions lattice model.emission;
    iter_edges lattice (fun e p g ->
        weight.(e) <-
          (if lattice.column.(g) > 0 then Logspace.one
           else
             start_weight config
               (Dist.log_prob model.period (lattice.span.(g) - 1))
               lattice.record.(g) lattice.record.(p)))

  let m_step config data lattice workspace =
    let k = data.k in
    let period_counts = Array.make k 0. in
    let gamma = Fhmm.gamma workspace and xi = Fhmm.xi workspace in
    (* Record starts contribute to the period distribution: every state
       of position 0, then every transition into an m = 0 state. *)
    for g = 0 to lattice.fhmm.Fhmm.first.(1) - 1 do
      let l = lattice.span.(g) in
      period_counts.(l - 1) <- period_counts.(l - 1) +. gamma.(g)
    done;
    for i = 1 to data.n - 1 do
      iter_transitions lattice xi i (fun e _ g ->
          if lattice.column.(g) = 0 then begin
            let l = lattice.span.(g) in
            period_counts.(l - 1) <- period_counts.(l - 1) +. xi.(e)
          end)
    done;
    {
      period =
        Dist.estimate ~alpha:config.smoothing ~counts:period_counts ();
      emission = estimate_emissions config data lattice gamma (k * k);
    }
end

(* ------------------------------------------------------------------ *)
(* EM driver and decoding.                                             *)
(* ------------------------------------------------------------------ *)

(* A learned-parameter summary for inspection (the contents of the
   paper's Figure 2/3 boxes after EM): the period distribution (Period
   variant only) and per-column Bernoulli type profiles. *)
type summary = {
  period_distribution : float array option;
  emission_profiles : (int * float array) list;
}

let profile_of_bernoulli bv =
  Array.init 8 (fun bit -> Dist.bernoulli_prob_on bv bit)

(* [Some (path, iterations, log_likelihood, summary)], the path as
   (record, column) per extract, or [None] when no path is feasible. *)
let run_em config data =
  let run lattice reweight m_step initial summarize =
    let fhmm = lattice.fhmm in
    let workspace = Fhmm.workspace fhmm in
    let model = ref initial in
    let iterations = ref 0 in
    let log_likelihood = ref Logspace.zero in
    Instrument.time ~stage:"segment.hmm.em" (fun () ->
        try
          let previous = ref neg_infinity in
          for _ = 1 to config.em_iterations do
            reweight !model;
            if not (Fhmm.forward_backward fhmm workspace) then raise Exit;
            incr iterations;
            log_likelihood := Fhmm.log_likelihood workspace;
            model := m_step workspace;
            if
              !log_likelihood -. !previous < config.tolerance
              && !previous > neg_infinity
            then raise Exit;
            previous := !log_likelihood
          done
        with Exit -> ());
    let path =
      Instrument.time ~stage:"segment.hmm.decode" (fun () ->
          reweight !model;
          match config.decoder with
          | Map_decoding -> Fhmm.viterbi fhmm
          | Posterior_decoding ->
            (* Per-position argmax of the state posteriors: maximizes
               expected per-extract accuracy at the cost of global path
               consistency. *)
            if not (Fhmm.forward_backward fhmm workspace) then None
            else begin
              let gamma = Fhmm.gamma workspace in
              Some
                (Array.init data.n (fun i ->
                     let first = fhmm.Fhmm.first.(i) in
                     let best = ref 0 in
                     for s = 1 to fhmm.Fhmm.first.(i + 1) - first - 1 do
                       if gamma.(first + s) > gamma.(first + !best) then
                         best := s
                     done;
                     !best))
            end)
    in
    Option.map
      (fun path ->
        let decoded =
          Array.mapi
            (fun i s ->
              let g = fhmm.Fhmm.first.(i) + s in
              (lattice.record.(g), lattice.column.(g)))
            path
        in
        (decoded, !iterations, !log_likelihood, summarize !model))
      path
  in
  match config.variant with
  | Base ->
    let lattice = Base_model.lattice data in
    run lattice
      (Base_model.reweight config lattice)
      (Base_model.m_step config data lattice)
      (Base_model.initial data)
      (fun (model : Base_model.t) ->
        {
          period_distribution = None;
          emission_profiles =
            Array.to_list
              (Array.mapi
                 (fun c bv -> (c, profile_of_bernoulli bv))
                 model.Base_model.emission);
        })
  | Period ->
    let lattice = Period_model.lattice data in
    run lattice
      (Period_model.reweight config lattice)
      (Period_model.m_step config data lattice)
      (Period_model.initial data)
      (fun (model : Period_model.t) ->
        {
          period_distribution =
            Some
              (Array.init data.k (fun l ->
                   Dist.prob model.Period_model.period l));
          emission_profiles =
            (* Summarize the dominant record length's positions. *)
            (let best_length =
               let best = ref 0 in
               for l = 1 to data.k do
                 if
                   Dist.prob model.Period_model.period (l - 1)
                   > Dist.prob model.Period_model.period !best
                 then best := l - 1
               done;
               !best + 1
             in
             List.init best_length (fun m ->
                 ( m,
                   profile_of_bernoulli
                     model.Period_model.emission.(Period_model.emission_index
                                                    data m best_length) )));
        })

let segment_observation config observation notes extras =
  let entries = observation.Observation.entries in
  let n = Array.length entries in
  if n = 0 then
    ( Segmentation.assemble ~notes ~assigned:[] ~unassigned:[] ~extras,
      { iterations = 0; log_likelihood = 0.; columns_bound = 0;
        period_distribution = None; emission_profiles = [] } )
  else if observation.Observation.num_details <= 1 then begin
    (* A single detail page: everything belongs to the one record. *)
    let assigned =
      Array.to_list entries
      |> List.mapi (fun i e -> (e.Observation.extract, 0, Some i))
    in
    ( Segmentation.assemble ~notes ~assigned ~unassigned:[] ~extras,
      { iterations = 0; log_likelihood = 0.; columns_bound = 1;
        period_distribution = None; emission_profiles = [] } )
  end
  else begin
    let data = make_data config observation in
    match run_em config data with
    | None ->
      (* No feasible path even with escape transitions; give up gracefully
         by leaving everything unassigned. *)
      let unassigned =
        Array.to_list (Array.map (fun e -> e.Observation.extract) entries)
      in
      ( Segmentation.assemble ~notes ~assigned:[] ~unassigned ~extras,
        { iterations = 0; log_likelihood = neg_infinity;
          columns_bound = data.k; period_distribution = None;
          emission_profiles = [] } )
    | Some (path, iterations, log_likelihood, summary) ->
      let assigned =
        Array.to_list
          (Array.mapi
             (fun i (r, c) -> (entries.(i).Observation.extract, r, Some c))
             path)
      in
      ( Segmentation.assemble ~notes ~assigned ~unassigned:[] ~extras,
        { iterations; log_likelihood; columns_bound = data.k;
          period_distribution = summary.period_distribution;
          emission_profiles = summary.emission_profiles } )
  end

let segment ?(config = default_config) (prepared : Pipeline.prepared) =
  Instrument.time ~stage:"segment.hmm" (fun () ->
      segment_observation config prepared.Pipeline.observation
        prepared.Pipeline.notes
        prepared.Pipeline.observation.Observation.extras)

let solve_observation ?(config = default_config) observation =
  segment_observation config observation []
    observation.Observation.extras
