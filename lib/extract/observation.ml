type entry = {
  extract : Extract.t;
  pages : int list;
  positions : (int * int) list;
}

type t = {
  entries : entry array;
  extras : Extract.t list;
  num_details : int;
}

type builder = {
  extracts : Extract.t array;
  other_list_indices : Matching.detail_index list;
  found : (int * int) list array;  (** per extract, reversed *)
  mutable details_seen : int;
}

let start ?(other_list_indices = []) ~extracts () =
  let extracts = Array.of_list extracts in
  let n = Array.length extracts in
  {
    extracts;
    other_list_indices;
    found = Array.make n [];
    details_seen = 0;
  }

let add_detail builder detail =
  let page = builder.details_seen in
  builder.details_seen <- page + 1;
  let index = Matching.index_detail detail in
  Array.iteri
    (fun i (extract : Extract.t) ->
      builder.found.(i) <-
        List.rev_append
          (List.map
             (fun pos -> (page, pos))
             (Matching.occurrences index extract.Extract.words))
          builder.found.(i))
    builder.extracts

let finish builder =
  let num_details = builder.details_seen in
  let on_all_other_lists (extract : Extract.t) =
    builder.other_list_indices <> []
    && List.for_all
         (fun index -> Matching.contains index extract.Extract.words)
         builder.other_list_indices
  in
  let entries = ref [] and extras = ref [] in
  Array.iteri
    (fun i extract ->
      let positions = List.rev builder.found.(i) in
      let pages = List.sort_uniq compare (List.map fst positions) in
      let uninformative =
        pages = []
        || List.length pages = num_details
        || on_all_other_lists extract
      in
      if uninformative then extras := extract :: !extras
      else entries := { extract; pages; positions } :: !entries)
    builder.extracts;
  {
    entries = Array.of_list (List.rev !entries);
    extras = List.rev !extras;
    num_details;
  }

let build ?(other_list_pages = []) ~extracts ~details () =
  let builder =
    start
      ~other_list_indices:(List.map Matching.index_detail other_list_pages)
      ~extracts ()
  in
  List.iter (add_detail builder) details;
  finish builder

let candidate_count t =
  Array.fold_left
    (fun acc entry -> acc + List.length entry.pages)
    0 t.entries

let pages_covered t =
  let seen = Hashtbl.create 16 in
  Array.iter
    (fun entry -> List.iter (fun page -> Hashtbl.replace seen page ()) entry.pages)
    t.entries;
  Hashtbl.length seen

let pp ppf t =
  Format.fprintf ppf "@[<v>";
  Array.iter
    (fun entry ->
      Format.fprintf ppf "E%-3d %-28s D = {%s}@,"
        (entry.extract.Extract.id + 1)
        (Printf.sprintf "%S" entry.extract.Extract.text)
        (String.concat ","
           (List.map (fun page -> Printf.sprintf "r%d" (page + 1)) entry.pages)))
    t.entries;
  Format.fprintf ppf "@]"

let pp_positions ppf t =
  Format.fprintf ppf "@[<v>";
  Array.iter
    (fun entry ->
      List.iter
        (fun (page, position) ->
          Format.fprintf ppf "E%-3d pos_%d^%d@," (entry.extract.Extract.id + 1)
            (page + 1) position)
        entry.positions)
    t.entries;
  Format.fprintf ppf "@]"
