(* Delta debugging (Zeller's ddmin) over schedule intervention lists. *)

let partition l n =
  let len = List.length l in
  if len = 0 then []
  else begin
    let n = min n len in
    let base = len / n and extra = len mod n in
    let rec take k l acc =
      if k = 0 then (List.rev acc, l)
      else
        match l with
        | [] -> (List.rev acc, [])
        | x :: tl -> take (k - 1) tl (x :: acc)
    in
    let rec go i l acc =
      if i >= n then List.rev acc
      else begin
        let k = base + if i < extra then 1 else 0 in
        let chunk, rest = take k l [] in
        go (i + 1) rest (chunk :: acc)
      end
    in
    go 0 l []
  end

(* [l] without every element of [remove], in linear time. *)
let diff l remove =
  let drop = Hashtbl.create (List.length remove) in
  List.iter (fun x -> Hashtbl.replace drop x ()) remove;
  List.filter (fun x -> not (Hashtbl.mem drop x)) l

(* [ddmin ~budget ~test cs]: smallest subset of [cs] (in the ddmin sense:
   1-minimal up to chunk granularity) on which [test] still fails
   (returns true).  [test []] may or may not fail; [test cs] is assumed
   to fail.  At most [budget] calls to [test]; on exhaustion the best
   subset found so far is returned. *)
let ddmin ?(budget = 400) ~test cs =
  let left = ref budget in
  let test l =
    if !left <= 0 then false
    else begin
      decr left;
      test l
    end
  in
  let rec go cs n =
    let len = List.length cs in
    if len <= 1 then cs
    else begin
      let chunks = partition cs n in
      match List.find_opt test chunks with
      | Some c -> go c 2
      | None -> (
          let complement =
            List.find_opt (fun c -> test (diff cs c)) chunks
          in
          match complement with
          | Some c -> go (diff cs c) (max (n - 1) 2)
          | None -> if n < len then go cs (min len (2 * n)) else cs)
    end
  in
  if cs = [] then []
  else if test [] then []
  else go cs 2
