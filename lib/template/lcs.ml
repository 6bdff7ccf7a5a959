(* dp.((i * (m + 1)) + j) = LCS length of a[i..] and b[j..], one flat
   (n + 1) × (m + 1) array. *)
let table (a : int array) (b : int array) =
  let n = Array.length a and m = Array.length b in
  let width = m + 1 in
  let dp = Array.make ((n + 1) * width) 0 in
  for i = n - 1 downto 0 do
    let row = i * width and below = (i + 1) * width in
    let x = a.(i) in
    for j = m - 1 downto 0 do
      dp.(row + j) <-
        (if x = b.(j) then 1 + dp.(below + j + 1)
         else
           let skip_a = dp.(below + j) and skip_b = dp.(row + j + 1) in
           if skip_a >= skip_b then skip_a else skip_b)
    done
  done;
  dp

(* The walk from (0, 0): take a match, else step to i + 1 when the two
   DP cells tie, so the chosen LCS is the same on every run. *)
let fold f init (a : int array) (b : int array) =
  let n = Array.length a and m = Array.length b in
  let width = m + 1 in
  let dp = table a b in
  let rec walk acc i j =
    if i >= n || j >= m then acc
    else if a.(i) = b.(j) then walk (f acc i j) (i + 1) (j + 1)
    else if dp.(((i + 1) * width) + j) >= dp.((i * width) + j + 1) then
      walk acc (i + 1) j
    else walk acc i (j + 1)
  in
  walk init 0 0

let pairs a b = List.rev (fold (fun acc i j -> (i, j) :: acc) [] a b)

let common a b =
  Array.of_list (List.rev (fold (fun acc i _ -> a.(i) :: acc) [] a b))

let length a b = (table a b).(0)
