(* The inline traced decomposition: [Api.segment_result] rebuilt from the
   public functions of each layer, so every layer can be timed from the
   outside. It must produce the same value as the library's own
   composition — the corpus workload checks that byte for byte against
   the service's responses, so a drift here fails the run. *)

module Api = Tabseg.Api
module Pipeline = Tabseg.Pipeline
module Segmentation = Tabseg.Segmentation
module Tokenizer = Tabseg_token.Tokenizer
module Template = Tabseg_template.Template
module Slot = Tabseg_template.Slot
module Extract = Tabseg_extract.Extract
module Observation = Tabseg_extract.Observation

(* Work counts gathered while decomposing (times and allocation come
   from the spans). *)
type counts = {
  mutable tokens : int;
  mutable inductions : int;
  mutable candidates : int;
  mutable csp_sites : int;
  mutable relaxed : int;
  mutable em_iterations : int;
}

let counts () =
  {
    tokens = 0;
    inductions = 0;
    candidates = 0;
    csp_sites = 0;
    relaxed = 0;
    em_iterations = 0;
  }

let blank html = String.trim html = ""

(* [Pipeline.locate_table] with the default configuration. *)
let locate_table tr c ~req pages page =
  let config = Pipeline.default_config in
  if List.length pages < 2 then (None, 0)
  else begin
    Measure.span tr ~name:"template" ~req @@ fun () ->
    let template = Template.induce pages in
    c.inductions <- c.inductions + 1;
    let template_size = Template.size template in
    if template_size < config.Pipeline.min_template_tokens then
      (None, template_size)
    else begin
      let slots = Template.slots template page in
      let total_words =
        List.fold_left (fun acc slot -> acc + Slot.word_count slot) 0 slots
      in
      match Slot.table_slot slots with
      | None -> (None, template_size)
      | Some slot ->
        let cover =
          if total_words = 0 then 0.
          else float_of_int (Slot.word_count slot) /. float_of_int total_words
        in
        if cover < config.Pipeline.min_slot_cover then (None, template_size)
        else (Some slot, template_size)
    end
  end

let core tr c ~req ~method_ (input : Pipeline.input) =
  Measure.span tr ~name:"core" ~req @@ fun () ->
  let pages, details =
    Measure.span tr ~name:"token" ~req (fun () ->
        ( List.map Tokenizer.tokenize input.Pipeline.list_pages,
          List.map Tokenizer.tokenize input.Pipeline.detail_pages ))
  in
  List.iter
    (fun t -> c.tokens <- c.tokens + Array.length t)
    (pages @ details);
  let page = List.hd pages in
  let others = List.tl pages in
  let located, template_size = locate_table tr c ~req pages page in
  let table_slot, notes =
    match located with
    | Some slot -> (slot, [])
    | None ->
      ( Slot.whole_page page,
        [ Segmentation.Template_problem; Segmentation.Entire_page_used ] )
  in
  let prepared =
    Measure.span tr ~name:"extract" ~req (fun () ->
        let extracts = Extract.of_slot table_slot in
        let observation =
          Observation.build ~other_list_pages:others ~extracts ~details ()
        in
        c.candidates <- c.candidates + Observation.candidate_count observation;
        { Pipeline.page; table_slot; observation; notes; template_size })
  in
  match method_ with
  | Api.Csp ->
    let segmentation =
      Measure.span tr ~name:"csp" ~req (fun () ->
          Tabseg.Csp_segmenter.segment prepared)
    in
    c.csp_sites <- c.csp_sites + 1;
    if List.mem Segmentation.Relaxed_constraints segmentation.Segmentation.notes
    then c.relaxed <- c.relaxed + 1;
    { Api.segmentation; prepared; diagnostics = None }
  | Api.Probabilistic ->
    let segmentation, diagnostics =
      Measure.span tr ~name:"hmm" ~req (fun () ->
          Tabseg.Prob_segmenter.segment prepared)
    in
    c.em_iterations <-
      c.em_iterations + diagnostics.Tabseg.Prob_segmenter.iterations;
    { Api.segmentation; prepared; diagnostics = Some diagnostics }

(* [Api.segment_result ~method_ input], layer by layer. The lexer runs
   inside [Tokenizer.tokenize]; in a traced run it is also called on its
   own over the same pages (span "html.lex", outside "core") so its
   share of tokenize can be subtracted. *)
let segment tr c ~req ~method_ (input : Pipeline.input) =
  match input.Pipeline.list_pages with
  | [] -> Error Api.No_list_pages
  | first :: _ when blank first -> Error Api.Blank_list_page
  | _ ->
    if
      input.Pipeline.detail_pages = []
      || List.for_all blank input.Pipeline.detail_pages
    then Error Api.All_details_lost
    else begin
      if tr.Measure.on then
        Measure.span tr ~name:"html.lex" ~req (fun () ->
            List.iter
              (fun html -> ignore (Tabseg_html.Lexer.lex html))
              (input.Pipeline.list_pages @ input.Pipeline.detail_pages));
      match core tr c ~req ~method_ input with
      | result -> Ok result
      | exception Invalid_argument message ->
        Error (Api.Pipeline_failure message)
    end

(* What a client receives, reduced to bytes: the segmentation and the EM
   diagnostics, marshalled without sharing so that equal values give
   equal bytes however they were built. *)
let response_digest (outcome : (Api.result, _) result) =
  let payload =
    match outcome with
    | Ok r -> Ok (r.Api.segmentation, r.Api.diagnostics)
    | Error e -> Error e
  in
  Digest.string (Marshal.to_string payload [ Marshal.No_sharing ])

(* A daemon reply's segmentation, reduced to bytes the same way. *)
let segmentation_digest (segmentation : Segmentation.t) =
  Digest.string (Marshal.to_string segmentation [ Marshal.No_sharing ])

(* Per-layer metrics from the decomposition spans and counts. *)
let metrics tr c =
  let ms s = s *. 1e3 in
  let mw w = w /. 1e6 in
  let t name = Measure.total tr name in
  let lex_s, _, _ = t "html.lex" in
  let tok_s, tok_w, _ = t "token" in
  let tpl_s, tpl_w, _ = t "template" in
  let ext_s, ext_w, _ = t "extract" in
  let csp_s, csp_w, _ = t "csp" in
  let hmm_s, hmm_w, _ = t "hmm" in
  let core_s, _, _ = t "core" in
  let hmm_gcs =
    List.fold_left
      (fun acc s -> if s.Measure.name = "hmm" then acc + s.Measure.minor_gcs else acc)
      0 tr.Measure.spans
  in
  let children = tok_s +. tpl_s +. ext_s +. csp_s +. hmm_s in
  let share a b = if b > 0. then a /. b else 0. in
  [
    ("html.lex_ms", "ms", ms lex_s);
    ("token.self_ms", "ms", ms (Float.max 0. (tok_s -. lex_s)));
    ("token.alloc_mwords", "Mwords", mw tok_w);
    ("token.tokens", "count", float_of_int c.tokens);
    ("template.self_ms", "ms", ms tpl_s);
    ("template.alloc_mwords", "Mwords", mw tpl_w);
    ("template.inductions", "count", float_of_int c.inductions);
    ("extract.self_ms", "ms", ms ext_s);
    ("extract.alloc_mwords", "Mwords", mw ext_w);
    ("extract.candidates", "count", float_of_int c.candidates);
    ("csp.self_ms", "ms", ms csp_s);
    ("csp.alloc_mwords", "Mwords", mw csp_w);
    ( "csp.relaxed_share",
      "share",
      share (float_of_int c.relaxed) (float_of_int c.csp_sites) );
    ("hmm.self_ms", "ms", ms hmm_s);
    ("hmm.alloc_mwords", "Mwords", mw hmm_w);
    ("hmm.em_iterations", "count", float_of_int c.em_iterations);
    ("hmm.minor_gcs", "count", float_of_int hmm_gcs);
    ("core.self_ms", "ms", ms (Float.max 0. (core_s -. children)));
    ("trace.coverage", "share", share children core_s);
  ]
