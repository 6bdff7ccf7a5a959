(* Core-library tests built around the paper's worked Superpages example
   (Tables 1-3) plus edge cases and the strict -> relax fallback. *)

open Tabseg_extract

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* Build an observation table directly from (text, D_i, positions). The
   paper's Table 1/Table 3 data is expressible this way without HTML. *)
let make_observation ?(num_details = 0) rows =
  let num_details =
    List.fold_left
      (fun acc (_, pages, _) -> List.fold_left max acc (List.map succ pages))
      num_details rows
  in
  let entries =
    List.mapi
      (fun i (text, pages, positions) ->
        let words = String.split_on_char ' ' text in
        let extract =
          {
            Extract.id = i;
            words;
            text;
            start_index = 10 * (i + 1);
            stop_index = (10 * (i + 1)) + List.length words;
            types = Tabseg_token.Token_type.classify_word (List.hd words);
            first_types = Tabseg_token.Token_type.classify_word (List.hd words);
          }
        in
        { Observation.extract; pages; positions })
      rows
  in
  { Observation.entries = Array.of_list entries; extras = []; num_details }

(* The paper's Table 1 + Table 3: three white-pages records. Records r1 and
   r2 share a name and a phone number; positions disambiguate. *)
let superpages_observation () =
  make_observation
    [
      ("John Smith", [ 0; 1 ], [ (0, 730); (1, 536) ]);
      ("221 Washington St", [ 0 ], [ (0, 772) ]);
      ("New Holland", [ 0 ], [ (0, 812) ]);
      ("(740) 335-5555", [ 0; 1 ], [ (0, 846); (1, 578) ]);
      ("John Smith", [ 0; 1 ], [ (0, 730); (1, 536) ]);
      ("221R Washington St", [ 1 ], [ (1, 608) ]);
      ("Washington", [ 1 ], [ (1, 642) ]);
      ("(740) 335-5555", [ 0; 1 ], [ (0, 846); (1, 578) ]);
      ("George W. Smith", [ 2 ], [ (2, 700) ]);
      ("Findlay, OH", [ 2 ], [ (2, 710) ]);
      ("(419) 423-1212", [ 2 ], [ (2, 720) ]);
    ]

let expected_partition = [ [ 0; 1; 2; 3 ]; [ 4; 5; 6; 7 ]; [ 8; 9; 10 ] ]

let record_ids (segmentation : Tabseg.Segmentation.t) =
  List.map
    (fun (record : Tabseg.Segmentation.record) ->
      List.map (fun (e : Extract.t) -> e.Extract.id)
        record.Tabseg.Segmentation.extracts)
    segmentation.Tabseg.Segmentation.records

(* ------------------------- CSP segmenter ------------------------- *)

let test_csp_superpages_example () =
  let observation = superpages_observation () in
  let segmentation = Tabseg.Csp_segmenter.solve_observation observation in
  Alcotest.(check (list (list int)))
    "paper Table 2 assignment" expected_partition (record_ids segmentation);
  check_bool "no notes" true (segmentation.Tabseg.Segmentation.notes = [])

let test_csp_solution_unique () =
  (* The strict encoding of the paper example admits exactly one model. *)
  let observation = superpages_observation () in
  let encoded =
    Tabseg.Csp_segmenter.encode Tabseg.Csp_segmenter.Strict observation
  in
  check_int "unique model" 1
    (Tabseg_csp.Exact.count_solutions encoded.Tabseg.Csp_segmenter.problem)

let test_csp_michigan_inconsistency () =
  (* Michigan Corrections-style inconsistency: the string "Parole" occurs in
     two list rows but is observed at a single position on a single detail
     page, making the strict problem unsatisfiable; the relaxed problem
     yields a partial assignment (paper notes c, d). *)
  let observation =
    make_observation ~num_details:2
      [
        ("Alice Jones", [ 0 ], [ (0, 100) ]);
        ("Parole", [ 0 ], [ (0, 140) ]);
        ("Bob Brown", [ 1 ], [ (1, 100) ]);
        ("Parole", [ 0 ], [ (0, 140) ]);
      ]
  in
  let strict =
    Tabseg.Csp_segmenter.encode Tabseg.Csp_segmenter.Strict observation
  in
  check_bool "strict UNSAT" true
    (Tabseg_csp.Exact.solve strict.Tabseg.Csp_segmenter.problem
    = Tabseg_csp.Exact.Unsat);
  let segmentation = Tabseg.Csp_segmenter.solve_observation observation in
  let notes = segmentation.Tabseg.Segmentation.notes in
  check_bool "note c" true
    (List.mem Tabseg.Segmentation.No_solution notes);
  check_bool "note d" true
    (List.mem Tabseg.Segmentation.Relaxed_constraints notes);
  check_bool "partial assignment leaves something unassigned" true
    (segmentation.Tabseg.Segmentation.unassigned <> [])

let test_csp_empty_observation () =
  let observation = make_observation ~num_details:2 [] in
  let segmentation = Tabseg.Csp_segmenter.solve_observation observation in
  check_int "no records" 0
    (List.length segmentation.Tabseg.Segmentation.records)

let test_csp_consecutiveness () =
  (* Without position information, consecutiveness alone must forbid
     sandwiching: E1 and E3 both candidate for r1, E2 only for r2. *)
  let observation =
    make_observation ~num_details:2
      [
        ("A", [ 0; 1 ], []); ("B", [ 1 ], []); ("C", [ 0; 1 ], []);
        ("D", [ 1 ], []);
      ]
  in
  let segmentation = Tabseg.Csp_segmenter.solve_observation observation in
  List.iter
    (fun ids ->
      let sorted = List.sort compare ids in
      let contiguous =
        match sorted with
        | [] -> true
        | first :: _ ->
          List.mapi (fun offset id -> id = first + offset) sorted
          |> List.for_all Fun.id
      in
      check_bool "records are contiguous blocks" true contiguous)
    (record_ids segmentation)

let test_csp_monotonicity () =
  (* X may sit in r0 or r1, Y only in r0. Assigning X to r1 would invert
     record order; monotonicity removes that model. *)
  let observation =
    make_observation ~num_details:2
      [ ("X", [ 0; 1 ], []); ("Y", [ 0 ], []) ]
  in
  let count config =
    let encoded =
      Tabseg.Csp_segmenter.encode ~config Tabseg.Csp_segmenter.Strict
        observation
    in
    Tabseg_csp.Exact.count_solutions encoded.Tabseg.Csp_segmenter.problem
  in
  let with_monotone = Tabseg.Csp_segmenter.default_config in
  let without_monotone =
    { Tabseg.Csp_segmenter.default_config with
      Tabseg.Csp_segmenter.monotone = false }
  in
  check_int "inverted model excluded" 1 (count with_monotone);
  check_int "two models without monotonicity" 2 (count without_monotone)

(* --------------------- Probabilistic segmenter -------------------- *)

let test_prob_superpages_example variant () =
  let observation = superpages_observation () in
  let config = { variant with Tabseg.Prob_segmenter.em_iterations = 8 } in
  let segmentation, diagnostics =
    Tabseg.Prob_segmenter.solve_observation ~config observation
  in
  Alcotest.(check (list (list int)))
    "record partition" expected_partition (record_ids segmentation);
  check_bool "ran EM" true (diagnostics.Tabseg.Prob_segmenter.iterations >= 1)

let test_prob_assigns_every_extract () =
  let observation = superpages_observation () in
  let segmentation, _ =
    Tabseg.Prob_segmenter.solve_observation observation
  in
  check_int "nothing unassigned" 0
    (List.length segmentation.Tabseg.Segmentation.unassigned)

let test_prob_tolerates_michigan () =
  (* The same inconsistency that defeats the CSP still yields a full
     assignment from the probabilistic method (Section 6.3). *)
  let observation =
    make_observation ~num_details:2
      [
        ("Alice Jones", [ 0 ], [ (0, 100) ]);
        ("Parole", [ 0 ], [ (0, 140) ]);
        ("Bob Brown", [ 1 ], [ (1, 100) ]);
        ("Parole", [ 0 ], [ (0, 140) ]);
      ]
  in
  let segmentation, _ =
    Tabseg.Prob_segmenter.solve_observation observation
  in
  check_int "everything assigned" 0
    (List.length segmentation.Tabseg.Segmentation.unassigned);
  let total =
    List.fold_left
      (fun acc (r : Tabseg.Segmentation.record) ->
        acc + List.length r.Tabseg.Segmentation.extracts)
      0 segmentation.Tabseg.Segmentation.records
  in
  check_int "all four extracts in records" 4 total

let test_prob_single_detail_page () =
  let observation =
    make_observation ~num_details:1
      [ ("A", [ 0 ], []); ("B", [ 0 ], []); ("C", [ 0 ], []) ]
  in
  let segmentation, _ =
    Tabseg.Prob_segmenter.solve_observation observation
  in
  Alcotest.(check (list (list int)))
    "one record holds everything"
    [ [ 0; 1; 2 ] ]
    (record_ids segmentation)

let test_prob_columns_reported () =
  let observation = superpages_observation () in
  let segmentation, _ =
    Tabseg.Prob_segmenter.solve_observation observation
  in
  List.iter
    (fun (record : Tabseg.Segmentation.record) ->
      check_int "every extract has a column"
        (List.length record.Tabseg.Segmentation.extracts)
        (List.length record.Tabseg.Segmentation.columns);
      (* Within a record, columns are strictly increasing. *)
      let columns = List.map snd record.Tabseg.Segmentation.columns in
      let rec increasing = function
        | a :: (b :: _ as rest) -> a < b && increasing rest
        | [ _ ] | [] -> true
      in
      check_bool "columns strictly increasing" true (increasing columns))
    segmentation.Tabseg.Segmentation.records

(* A hardcoded MD5 over the probabilistic output on every page of the
   twelve built-in sites under the three model/decoder paths (Period +
   Viterbi, Base + Viterbi, Period + posterior argmax): each record's
   extracts and columns, the unassigned extracts, the notes, and EM's
   final log-likelihood (bit-exact, [%h]) and iteration count. Any
   change to the lattice, the E-step summation order or the M-step
   moves it. *)
let test_prob_golden_digest () =
  let configs =
    [
      ("period", Tabseg.Prob_segmenter.default_config);
      ("base", Tabseg.Prob_segmenter.base_config);
      ( "posterior",
        { Tabseg.Prob_segmenter.default_config with
          Tabseg.Prob_segmenter.decoder =
            Tabseg.Prob_segmenter.Posterior_decoding } );
    ]
  in
  let buffer = Buffer.create (1 lsl 16) in
  let ids extracts =
    String.concat "," (List.map (fun e -> string_of_int e.Extract.id) extracts)
  in
  List.iter
    (fun site ->
      let generated = Tabseg_sitegen.Sites.generate site in
      List.iteri
        (fun page_index _ ->
          let list_pages, detail_pages =
            Tabseg_sitegen.Sites.segmentation_input generated ~page_index
          in
          let prepared =
            Tabseg.Pipeline.prepare { Tabseg.Pipeline.list_pages; detail_pages }
          in
          List.iter
            (fun (label, prob_config) ->
              let result =
                Tabseg.Api.solve ~prob_config ~method_:Tabseg.Api.Probabilistic
                  prepared
              in
              let segmentation = result.Tabseg.Api.segmentation in
              Printf.bprintf buffer "%s/%d/%s\n" site.Tabseg_sitegen.Sites.name
                page_index label;
              List.iter
                (fun (record : Tabseg.Segmentation.record) ->
                  Printf.bprintf buffer "r%d:%s|%s\n" record.number
                    (ids record.extracts)
                    (String.concat ","
                       (List.map
                          (fun (id, column) -> Printf.sprintf "%d=%d" id column)
                          record.columns)))
                segmentation.Tabseg.Segmentation.records;
              Printf.bprintf buffer "u:%s n:%s\n"
                (ids segmentation.Tabseg.Segmentation.unassigned)
                (String.init
                   (List.length segmentation.Tabseg.Segmentation.notes)
                   (fun i ->
                     Tabseg.Segmentation.note_letter
                       (List.nth segmentation.Tabseg.Segmentation.notes i)));
              match result.Tabseg.Api.diagnostics with
              | Some d ->
                Printf.bprintf buffer "ll=%h it=%d\n"
                  d.Tabseg.Prob_segmenter.log_likelihood
                  d.Tabseg.Prob_segmenter.iterations
              | None -> Buffer.add_string buffer "no diagnostics\n")
            configs)
        generated.Tabseg_sitegen.Sites.pages)
    Tabseg_sitegen.Sites.all;
  Alcotest.(check string)
    "probabilistic output on the twelve sites is bit-identical"
    "c82dab1877468d7500451d93c2fc33e1"
    (Digest.to_hex (Digest.string (Buffer.contents buffer)))

(* A hardcoded MD5 over the CSP output and the induced page templates of
   the twelve built-in sites. For every page of every site it digests
   the CSP segmentation under three configurations (the paper's relaxed
   objective, the coverage relaxation and no monotonicity): each
   record's extracts and columns, the unassigned extracts and the note
   letters. It also digests [Template.keys] for every list-page ordering
   the pipeline induces from: batch ([target :: others]) and stream
   ([unit page :: head without it], with the engine's default head of
   four pages). A change to template induction, to the CSP encoding's
   constraint order or to the solver's walk moves it. *)
let test_csp_golden_digest () =
  let configs =
    [
      ("paper", Tabseg.Csp_segmenter.default_config);
      ("coverage", Tabseg.Csp_segmenter.coverage_config);
      ( "unordered",
        { Tabseg.Csp_segmenter.default_config with
          Tabseg.Csp_segmenter.monotone = false } );
    ]
  in
  let buffer = Buffer.create (1 lsl 16) in
  let ids extracts =
    String.concat "," (List.map (fun e -> string_of_int e.Extract.id) extracts)
  in
  let add_keys label pages =
    let template = Tabseg_template.Template.induce pages in
    Printf.bprintf buffer "%s:%s\n" label
      (String.concat " " (Tabseg_template.Template.keys template))
  in
  List.iter
    (fun site ->
      let generated = Tabseg_sitegen.Sites.generate site in
      let list_pages =
        List.map
          (fun page ->
            Tabseg_token.Tokenizer.tokenize
              page.Tabseg_sitegen.Sites.list_html)
          generated.Tabseg_sitegen.Sites.pages
      in
      let head = List.filteri (fun i _ -> i < 4) list_pages in
      List.iteri
        (fun unit page ->
          let others l = List.filteri (fun i _ -> i <> unit) l in
          add_keys "batch" (page :: others list_pages);
          add_keys "stream" (page :: others head))
        list_pages;
      List.iteri
        (fun page_index _ ->
          let list_pages, detail_pages =
            Tabseg_sitegen.Sites.segmentation_input generated ~page_index
          in
          let prepared =
            Tabseg.Pipeline.prepare { Tabseg.Pipeline.list_pages; detail_pages }
          in
          List.iter
            (fun (label, csp_config) ->
              let result =
                Tabseg.Api.solve ~csp_config ~method_:Tabseg.Api.Csp prepared
              in
              let segmentation = result.Tabseg.Api.segmentation in
              Printf.bprintf buffer "%s/%d/%s\n" site.Tabseg_sitegen.Sites.name
                page_index label;
              List.iter
                (fun (record : Tabseg.Segmentation.record) ->
                  Printf.bprintf buffer "r%d:%s|%s\n" record.number
                    (ids record.extracts)
                    (String.concat ","
                       (List.map
                          (fun (id, column) -> Printf.sprintf "%d=%d" id column)
                          record.columns)))
                segmentation.Tabseg.Segmentation.records;
              Printf.bprintf buffer "u:%s n:%s\n"
                (ids segmentation.Tabseg.Segmentation.unassigned)
                (String.init
                   (List.length segmentation.Tabseg.Segmentation.notes)
                   (fun i ->
                     Tabseg.Segmentation.note_letter
                       (List.nth segmentation.Tabseg.Segmentation.notes i))))
            configs)
        generated.Tabseg_sitegen.Sites.pages)
    Tabseg_sitegen.Sites.all;
  Alcotest.(check string)
    "CSP output and templates on the twelve sites are byte-identical"
    "3a197d680ffb53c174cacf9812b20a30"
    (Digest.to_hex (Digest.string (Buffer.contents buffer)))

(* The HMM reports its EM sweeps and its decode as two stages, each once
   per solved site and inside the enclosing [segment.hmm] stage. *)
let test_prob_stages () =
  let events = ref [] in
  let subscription =
    Tabseg.Instrument.subscribe (fun event -> events := event :: !events)
  in
  let generated =
    Tabseg_sitegen.Sites.generate (Tabseg_sitegen.Sites.find "ButlerCounty")
  in
  let list_pages, detail_pages =
    Tabseg_sitegen.Sites.segmentation_input generated ~page_index:0
  in
  Fun.protect
    ~finally:(fun () -> Tabseg.Instrument.unsubscribe subscription)
    (fun () ->
      ignore
        (Tabseg.Api.segment ~method_:Tabseg.Api.Probabilistic
           { Tabseg.Pipeline.list_pages; detail_pages }));
  let seconds stage =
    List.filter_map
      (fun e ->
        if e.Tabseg.Instrument.stage = stage then
          Some e.Tabseg.Instrument.seconds
        else None)
      !events
  in
  List.iter
    (fun stage ->
      check_bool (stage ^ " is listed") true
        (List.mem stage Tabseg.Instrument.stages);
      check_int (stage ^ " fires once") 1 (List.length (seconds stage)))
    [ "segment.hmm"; "segment.hmm.em"; "segment.hmm.decode" ];
  match seconds "segment.hmm", seconds "segment.hmm.em",
        seconds "segment.hmm.decode" with
  | [ hmm ], [ em ], [ decode ] ->
    check_bool "em and decode nest in segment.hmm" true (em +. decode <= hmm)
  | _ -> Alcotest.fail "expected one event per stage"

(* ------------------------- Segmentation -------------------------- *)

let dummy_extract id start text =
  let words = String.split_on_char ' ' text in
  {
    Extract.id;
    words;
    text;
    start_index = start;
    stop_index = start + List.length words;
    types = 0;
    first_types = 0;
  }

let test_assemble_attaches_extras () =
  let e0 = dummy_extract 0 10 "A" in
  let e1 = dummy_extract 1 20 "junk" in
  let e2 = dummy_extract 2 30 "B" in
  let segmentation =
    Tabseg.Segmentation.assemble ~notes:[]
      ~assigned:[ (e0, 0, None); (e2, 1, None) ]
      ~unassigned:[] ~extras:[ e1 ]
  in
  Alcotest.(check (list (list int)))
    "extra attaches to preceding record"
    [ [ 0; 1 ]; [ 2 ] ]
    (record_ids segmentation)

let test_assemble_drops_leading_extras () =
  let junk = dummy_extract 0 5 "header" in
  let e1 = dummy_extract 1 10 "A" in
  let segmentation =
    Tabseg.Segmentation.assemble ~notes:[] ~assigned:[ (e1, 0, None) ]
      ~unassigned:[] ~extras:[ junk ]
  in
  Alcotest.(check (list (list int)))
    "leading extra dropped" [ [ 1 ] ] (record_ids segmentation)

let test_note_letters () =
  check_bool "a" true
    (Tabseg.Segmentation.note_letter Tabseg.Segmentation.Template_problem = 'a');
  check_bool "b" true
    (Tabseg.Segmentation.note_letter Tabseg.Segmentation.Entire_page_used = 'b');
  check_bool "c" true
    (Tabseg.Segmentation.note_letter Tabseg.Segmentation.No_solution = 'c');
  check_bool "d" true
    (Tabseg.Segmentation.note_letter Tabseg.Segmentation.Relaxed_constraints
    = 'd')

(* -------------------------- End to end --------------------------- *)

let list_page_1 =
  {|<html><head><title>SuperPages</title></head><body>
<h1>Results</h1><p>3 Matching Listings</p><a href="search.html">Search Again</a>
<table>
<tr><td><b>John Smith</b></td><td>221 Washington St</td><td>New Holland</td><td>(740) 335-5555</td><td><a href="d1.html">More Info</a></td></tr>
<tr><td><b>John Smith</b></td><td>221R Washington St</td><td>Washington</td><td>(740) 335-5555</td><td><a href="d2.html">More Info</a></td></tr>
<tr><td><b>George W. Smith</b></td><td>100 Main St</td><td>Findlay</td><td>(419) 423-1212</td><td><a href="d3.html">More Info</a></td></tr>
</table>
<p>Copyright 2004 SuperPages</p></body></html>|}

let list_page_2 =
  {|<html><head><title>SuperPages</title></head><body>
<h1>Results</h1><p>2 Matching Listings</p><a href="search.html">Search Again</a>
<table>
<tr><td><b>Mary Major</b></td><td>7 Oak Ave</td><td>Columbus</td><td>(614) 555-0199</td><td><a href="d4.html">More Info</a></td></tr>
<tr><td><b>Ann Minor</b></td><td>9 Elm Rd</td><td>Dayton</td><td>(937) 555-0121</td><td><a href="d5.html">More Info</a></td></tr>
</table>
<p>Copyright 2004 SuperPages</p></body></html>|}

let detail name address city phone =
  Printf.sprintf
    {|<html><body><h1>Detail</h1><p><b>%s</b><br>%s<br>%s<br>%s</p><p>Send Flowers</p><p>Copyright 2004 SuperPages</p></body></html>|}
    name address city phone

let end_to_end_input =
  {
    Tabseg.Pipeline.list_pages = [ list_page_1; list_page_2 ];
    detail_pages =
      [
        detail "John Smith" "221 Washington St" "New Holland" "(740) 335-5555";
        detail "John Smith" "221R Washington St" "Washington" "(740) 335-5555";
        detail "George W. Smith" "100 Main St" "Findlay" "(419) 423-1212";
      ];
  }

let expected_rows =
  [
    [ "John Smith"; "221 Washington St"; "New Holland"; "(740) 335-5555";
      "More Info" ];
    [ "John Smith"; "221R Washington St"; "Washington"; "(740) 335-5555";
      "More Info" ];
    [ "George W. Smith"; "100 Main St"; "Findlay"; "(419) 423-1212";
      "More Info" ];
  ]

let test_end_to_end method_ () =
  let result = Tabseg.Api.segment ~method_ end_to_end_input in
  Alcotest.(check (list (list string)))
    "rows (attributes + attached More Info)" expected_rows
    (Tabseg.Segmentation.record_texts result.Tabseg.Api.segmentation);
  check_bool "no notes" true
    (result.Tabseg.Api.segmentation.Tabseg.Segmentation.notes = [])

let test_pipeline_finds_table_slot () =
  let prepared = Tabseg.Pipeline.prepare end_to_end_input in
  check_bool "template induced" true
    (prepared.Tabseg.Pipeline.template_size
    >= Tabseg.Pipeline.default_config.Tabseg.Pipeline.min_template_tokens);
  check_bool "no notes" true (prepared.Tabseg.Pipeline.notes = []);
  (* The slot must not cover the whole page. *)
  let slot = prepared.Tabseg.Pipeline.table_slot in
  let page = prepared.Tabseg.Pipeline.page in
  check_bool "proper slot" true
    (Tabseg_template.Slot.length slot < Array.length page)

let test_pipeline_whole_page_fallback () =
  (* A single list page cannot support template induction. *)
  let input = { end_to_end_input with Tabseg.Pipeline.list_pages = [ list_page_1 ] } in
  let prepared = Tabseg.Pipeline.prepare input in
  check_bool "notes a and b" true
    (List.mem Tabseg.Segmentation.Template_problem
       prepared.Tabseg.Pipeline.notes
    && List.mem Tabseg.Segmentation.Entire_page_used
         prepared.Tabseg.Pipeline.notes)

let () =
  Alcotest.run "tabseg_core"
    [
      ( "csp_segmenter",
        [
          Alcotest.test_case "paper Table 2" `Quick test_csp_superpages_example;
          Alcotest.test_case "solution unique" `Quick test_csp_solution_unique;
          Alcotest.test_case "michigan inconsistency" `Quick
            test_csp_michigan_inconsistency;
          Alcotest.test_case "empty observation" `Quick
            test_csp_empty_observation;
          Alcotest.test_case "consecutiveness" `Quick test_csp_consecutiveness;
          Alcotest.test_case "monotonicity" `Quick test_csp_monotonicity;
          Alcotest.test_case "golden digest (twelve sites, three configs)"
            `Quick test_csp_golden_digest;
        ] );
      ( "prob_segmenter",
        [
          Alcotest.test_case "paper example (period)" `Quick
            (test_prob_superpages_example Tabseg.Prob_segmenter.default_config);
          Alcotest.test_case "paper example (base)" `Quick
            (test_prob_superpages_example Tabseg.Prob_segmenter.base_config);
          Alcotest.test_case "assigns every extract" `Quick
            test_prob_assigns_every_extract;
          Alcotest.test_case "tolerates michigan inconsistency" `Quick
            test_prob_tolerates_michigan;
          Alcotest.test_case "single detail page" `Quick
            test_prob_single_detail_page;
          Alcotest.test_case "columns reported" `Quick
            test_prob_columns_reported;
          Alcotest.test_case "golden digest (twelve sites, three paths)"
            `Quick test_prob_golden_digest;
          Alcotest.test_case "EM and decode stages" `Quick test_prob_stages;
        ] );
      ( "segmentation",
        [
          Alcotest.test_case "extras attach" `Quick
            test_assemble_attaches_extras;
          Alcotest.test_case "leading extras dropped" `Quick
            test_assemble_drops_leading_extras;
          Alcotest.test_case "note letters" `Quick test_note_letters;
        ] );
      ( "end_to_end",
        [
          Alcotest.test_case "CSP" `Quick (test_end_to_end Tabseg.Api.Csp);
          Alcotest.test_case "probabilistic" `Quick
            (test_end_to_end Tabseg.Api.Probabilistic);
          Alcotest.test_case "pipeline finds table slot" `Quick
            test_pipeline_finds_table_slot;
          Alcotest.test_case "whole page fallback" `Quick
            test_pipeline_whole_page_fallback;
        ] );
    ]
