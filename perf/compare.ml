(* [perf.exe compare A/ B/]: the choosing-metrics section 8 rule over two
   directories of result files (each the standard output of one
   [perf.exe] run, ten or more per side), with the bounds of
   BENCHMARK.json.

   Per workload x end-to-end metric: each side's median and quartiles,
   the share of pairs B wins (ties count for neither; runs are paired by
   seed when both sides ran the same seeds, else in file order), and a
   verdict:
   - better: B wins at least 9/10 of the pairs and the medians differ by
     more than A's interquartile distance, in B's favour;
   - unresolved: A's own spread exceeds the bound, unless every B run
     beats every A run;
   - worse: B's median is worse than A's by more than the bound;
   - unchanged: otherwise.
   Metrics printed as "info" (reported, never gated) get the statistics
   and the verdict "info".
   [exact] tells whether every seed-paired value is bit-identical, which
   the simulator metrics must be for two runs of one commit. *)

type sample = { seed : int; value : float }

(* Python's statistics.quantiles(data, n=4) ("exclusive" method), the
   spread measure the benchmark's bounds are checked against. *)
let quartiles values =
  let a = Array.of_list values in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then (0., 0., 0.)
  else if n = 1 then (a.(0), a.(0), a.(0))
  else
    let q i =
      let m = n + 1 in
      let j = max 1 (min (n - 1) (i * m / 4)) in
      let delta = float_of_int ((i * m) - (j * 4)) in
      ((a.(j - 1) *. (4. -. delta)) +. (a.(j) *. delta)) /. 4.
    in
    (q 1, q 2, q 3)

(* (workload, metric) -> samples, in file order. *)
let load dir =
  let files =
    Sys.readdir dir |> Array.to_list |> List.sort compare
    |> List.map (Filename.concat dir)
    |> List.filter (fun f -> not (Sys.is_directory f))
  in
  let cells = Hashtbl.create 64 in
  List.iter
    (fun file ->
      In_channel.with_open_text file In_channel.input_all
      |> String.split_on_char '\n'
      |> List.iter (fun line ->
             if String.length line > 0 && line.[0] = '{' then
               match Json.parse line with
               | exception Json.Error _ -> ()
               | j -> (
                   match
                     ( Json.to_string (Json.member "workload" j),
                       Json.to_string (Json.member "metric" j),
                       Json.to_string (Json.member "kind" j),
                       Json.to_float (Json.member "value" j) )
                   with
                   | Some w, Some m, Some ("e2e" | "gate" | "info"), Some v ->
                       let seed =
                         Option.value ~default:0.
                           (Json.to_float (Json.member "seed" j))
                       in
                       let key = (w, m) in
                       let prev = Option.value ~default:[] (Hashtbl.find_opt cells key) in
                       Hashtbl.replace cells key
                         ({ seed = int_of_float seed; value = v } :: prev)
                   | _ -> ())))
    files;
  (List.length files, Hashtbl.fold (fun k v acc -> (k, List.rev v) :: acc) cells [])

type bound = Relative of float * Spec.better | Zero | Ungated of Spec.better

(* Bounds from BENCHMARK.json; [failed_share] is the absolute-zero gate
   the file cannot express. *)
let bounds path =
  let j = Json.parse (Json.read_file path) in
  let rel =
    List.filter_map
      (fun m ->
        match
          ( Json.to_string (Json.member "name" m),
            Json.to_string (Json.member "better" m),
            Json.to_float (Json.member "bound" m) )
        with
        | Some n, Some b, Some x ->
            Some (n, Relative (x, if b = "higher" then Spec.Higher else Spec.Lower))
        | _ -> None)
      (Json.to_list (Json.member "end_to_end" j))
  in
  ("failed_share", Zero) :: rel

let pairs a b =
  let seeds l = List.sort compare (List.map (fun s -> s.seed) l) in
  if seeds a = seeds b && List.length (List.sort_uniq compare (seeds a)) = List.length a
  then
    ( true,
      List.map
        (fun x -> (x.value, (List.find (fun y -> y.seed = x.seed) b).value))
        a )
  else
    let rec zip a b =
      match (a, b) with x :: a, y :: b -> (x.value, y.value) :: zip a b | _ -> []
    in
    (false, zip a b)

let verdict bound a b =
  let va = List.map (fun s -> s.value) a and vb = List.map (fun s -> s.value) b in
  let q1a, ma, q3a = quartiles va and _, mb, _ = quartiles vb in
  let by_seed, ps = pairs a b in
  let exact = by_seed && List.for_all (fun (x, y) -> x = y) ps in
  let better = match bound with Relative (_, d) | Ungated d -> d | Zero -> Spec.Lower in
  let wins =
    List.length
      (List.filter
         (fun (x, y) -> match better with Spec.Higher -> y > x | Spec.Lower -> y < x)
         ps)
  in
  let win = float_of_int wins /. float_of_int (max 1 (List.length ps)) in
  match bound with
  | Ungated _ -> ("info", win, exact)
  | Zero ->
      let v = if List.exists (fun x -> x > 0.) vb then "worse" else "unchanged" in
      (v, win, exact)
  | Relative (bound, _) ->
      let scale = Float.max (Float.abs ma) Float.min_float in
      let worse_by =
        (match better with Spec.Higher -> ma -. mb | Spec.Lower -> mb -. ma) /. scale
      in
      let all_better =
        match better with
        | Spec.Higher -> List.fold_left min infinity vb > List.fold_left max neg_infinity va
        | Spec.Lower -> List.fold_left max neg_infinity vb < List.fold_left min infinity va
      in
      let v =
        if win >= 0.9 && worse_by < 0. && Float.abs (mb -. ma) > q3a -. q1a then "better"
        else if (q3a -. q1a) /. scale > bound && not all_better then "unresolved"
        else if worse_by > bound then "worse"
        else "unchanged"
      in
      (v, win, exact)

let run ~benchmark dir_a dir_b =
  let bounds = bounds benchmark in
  let na, a = load dir_a and nb, b = load dir_b in
  if na < 10 || nb < 10 then
    Printf.printf "# note: %d and %d result files; the rule wants at least 10 per side\n"
      na nb;
  Printf.printf "%-17s %-14s %27s %27s %6s %-10s %s\n" "workload" "metric"
    "A median [q1, q3]" "B median [q1, q3]" "B wins" "verdict" "exact";
  let bad = ref 0 in
  let order (w, m) =
    let wi = Option.value ~default:99 (List.find_index (( = ) w) Spec.workload_names) in
    let mi =
      Option.value ~default:99
        (List.find_index (fun x -> x.Spec.name = m) Spec.metrics)
    in
    (wi, mi)
  in
  let keys = List.sort (fun x y -> compare (order x) (order y)) (List.map fst a) in
  List.iter
    (fun ((w, m) as key) ->
      let bound =
        match List.assoc_opt m bounds with
        | Some b -> Some b
        | None -> (
            match Spec.find m with
            | Some { Spec.kind = Spec.Info; better; _ } -> Some (Ungated better)
            | _ -> None)
      in
      match (bound, List.assoc_opt key b) with
      | Some bound, Some sb ->
          let sa = List.assoc key a in
          let v, win, exact = verdict bound sa sb in
          if v = "worse" || v = "unresolved" then incr bad;
          let show l =
            let q1, md, q3 = quartiles (List.map (fun s -> s.value) l) in
            Printf.sprintf "%.4g [%.4g, %.4g]" md q1 q3
          in
          Printf.printf "%-17s %-14s %27s %27s %6.2f %-10s %s\n" w m (show sa) (show sb)
            win v
            (if exact then "yes" else "no")
      | _ -> ())
    keys;
  !bad = 0
