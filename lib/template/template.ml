open Tabseg_token

type t = { template_keys : string array }

module Keys = Hashtbl.Make (String)

(* Every key of the pages, interned into a dense int once per induction,
   in a table local to the call. Equal ids mean equal key strings. The two
   sentinels stand for the missing neighbours of a page's first and last
   token; they are interned first (ids 0 and 1), so a word spelled like a
   sentinel is that same neighbour. *)
type interned = {
  ids : int array array;  (* per page, token -> key id *)
  names : string array;  (* key id -> key *)
}

let page_start = "^page-start^"
let page_end = "^page-end^"

let intern pages =
  let table = Keys.create 1024 in
  let id key =
    match Keys.find table key with
    | id -> id
    | exception Not_found ->
      let id = Keys.length table in
      Keys.add table key id;
      id
  in
  ignore (id page_start);
  ignore (id page_end);
  let ids =
    Array.of_list
      (List.map (Array.map (fun token -> id (Token.template_key token))) pages)
  in
  let names = Array.make (Keys.length table) "" in
  Keys.iter (fun key id -> names.(id) <- key) table;
  { ids; names }

(* Tokens eligible for the page template must (1) occur exactly once on
   every page, (2) in the same immediate context (previous and next token
   key), and (3) — computed as a fixpoint — have every adjacent *word*
   neighbor be eligible too (tag neighbors are exempt). Rules 2 and 3
   reject data values that happen to occur once per page (a "Betty Lee" on
   both pages keeps "Betty" unique, but its neighbor "Lee" repeats and is
   ineligible, which disqualifies "Betty" as well), while keeping genuine
   per-row structure such as entry enumerators, whose neighbors are the
   same row tags on every page, and chrome sentences, whose neighbors are
   eligible chrome words.

   Rules 1 and 2 are decided per key from per-page count and position
   arrays. Since an eligible key has the same neighbors on every page,
   rule 3 is checked on the first page alone: the greatest set closed
   under it is reached by removing every candidate with a non-candidate
   word neighbor, then the candidates next to each removed word, until
   none is left to remove. *)
let eligible { ids; names } =
  let keys = Array.length names in
  let eligible = Array.make keys false in
  let first = ids.(0) in
  let neighbor page p =
    if p < 0 then 0 else if p >= Array.length page then 1 else page.(p)
  in
  (* [count] is all zeros between pages: [clear] undoes [locate]. *)
  let count = Array.make keys 0 and where = Array.make keys (-1) in
  let locate page =
    Array.iteri
      (fun p id ->
        count.(id) <- count.(id) + 1;
        where.(id) <- p)
      page
  in
  let clear page = Array.iter (fun id -> count.(id) <- 0) page in
  locate first;
  (* Candidates in first-page order, with their first-page position. *)
  let candidates = ref [] in
  for p = Array.length first - 1 downto 0 do
    if count.(first.(p)) = 1 then begin
      eligible.(first.(p)) <- true;
      candidates := p :: !candidates
    end
  done;
  clear first;
  for page = 1 to Array.length ids - 1 do
    let page = ids.(page) in
    locate page;
    candidates :=
      List.filter
        (fun p ->
          let id = first.(p) in
          let keep =
            count.(id) = 1
            && neighbor page (where.(id) - 1) = neighbor first (p - 1)
            && neighbor page (where.(id) + 1) = neighbor first (p + 1)
          in
          if not keep then eligible.(id) <- false;
          keep)
        !candidates;
    clear page
  done;
  let is_tag_key id =
    let key = names.(id) in
    String.length key > 0 && key.[0] = '<'
  in
  let neighbor_ok id = id < 2 || is_tag_key id || eligible.(id) in
  let rec erode p =
    if p >= 0 && p < Array.length first then begin
      let id = first.(p) in
      if
        eligible.(id)
        && not
             (neighbor_ok (neighbor first (p - 1))
             && neighbor_ok (neighbor first (p + 1)))
      then begin
        eligible.(id) <- false;
        if not (is_tag_key id) then begin
          erode (p - 1);
          erode (p + 1)
        end
      end
    end
  in
  List.iter erode !candidates;
  eligible

let induce pages =
  match pages with
  | [] -> { template_keys = [||] }
  | _ ->
    let interned = intern pages in
    let eligible = eligible interned in
    let sequence page =
      Array.of_list
        (Array.fold_right
           (fun id acc -> if eligible.(id) then id :: acc else acc)
           page [])
    in
    let ids = interned.ids in
    let template = ref (sequence ids.(0)) in
    for page = 1 to Array.length ids - 1 do
      template := Lcs.common !template (sequence ids.(page))
    done;
    { template_keys = Array.map (fun id -> interned.names.(id)) !template }

let keys t = Array.to_list t.template_keys
let size t = Array.length t.template_keys

(* The template's own key table: key -> index in the template. *)
let key_index t =
  let index = Keys.create (2 * Array.length t.template_keys) in
  Array.iteri (fun k key -> Keys.replace index key k) t.template_keys;
  index

let match_positions t page =
  let n = Array.length t.template_keys in
  let index = key_index t in
  let positions = Array.make n (-1) in
  (* A key listed twice in the template can never match. *)
  let ok = ref (Keys.length index = n) in
  Array.iteri
    (fun i token ->
      if !ok then
        match Keys.find index (Token.template_key token) with
        | k -> if positions.(k) >= 0 then ok := false else positions.(k) <- i
        | exception Not_found -> ())
    page;
  (* Every key must occur, in template order. *)
  for k = 0 to n - 1 do
    if positions.(k) < 0 || (k > 0 && positions.(k) <= positions.(k - 1)) then
      ok := false
  done;
  if !ok then Some positions else None

let slots t page =
  match match_positions t page with
  | None -> [ Slot.whole_page page ]
  | Some positions ->
    let n = Array.length page in
    let boundaries =
      (-1 :: Array.to_list positions) @ [ n ]
    in
    let rec gaps acc = function
      | left :: (right :: _ as rest) ->
        let start = left + 1 and stop = right in
        let acc =
          if stop > start then Slot.make page ~start ~stop :: acc else acc
        in
        gaps acc rest
      | [ _ ] | [] -> List.rev acc
    in
    gaps [] boundaries

let covers_words t page =
  let index = key_index t in
  Array.fold_left
    (fun acc token ->
      if Token.is_word token && Keys.mem index (Token.template_key token)
      then acc + 1
      else acc)
    0 page

let pp ppf t =
  Format.fprintf ppf "@[<hov 2>template(%d):@ %a@]"
    (Array.length t.template_keys)
    (Format.pp_print_list
       ~pp_sep:(fun ppf () -> Format.fprintf ppf "@ ")
       Format.pp_print_string)
    (Array.to_list t.template_keys)
