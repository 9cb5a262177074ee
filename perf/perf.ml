(* The repository benchmark.

     perf.exe [--workload W[,W...]] [--seed N] [--seconds S] [--trace 0|1]
              [--trace-dir DIR] [--smoke] [--benchmark FILE]
     perf.exe --describe                  # BENCHMARK.json, generated
     perf.exe compare A/ B/ [--benchmark FILE]

   Runs each workload's native and simulator legs with tracing off, checks
   every output, and prints one JSON line per end-to-end metric; with
   [--trace 1] it adds a traced pass, prints the per-layer metrics and
   the self time of each span name, and writes
   [DIR/<workload>.trace.json].  Each workload ends with its result line:
   [{"correct", "attempted", "failed", "metrics"}], whose metrics are the
   end-to-end ones, or the per-layer ones under [--trace 1]. *)

module H = Perfkit.Harness
module Spec = Perfkit.Spec

let usage () =
  prerr_endline
    "usage: perf.exe [--workload W,...] [--seed N] [--seconds S] [--trace 0|1] \
     [--trace-dir DIR] [--smoke] [--benchmark FILE]\n\
    \       perf.exe --describe\n\
    \       perf.exe compare DIR_A DIR_B [--benchmark FILE]";
  exit 2

let die fmt = Printf.ksprintf (fun s -> prerr_endline ("perf: " ^ s); exit 1) fmt

type opts = {
  mutable workloads : string list;
  mutable seed : int;
  mutable seconds : float;
  mutable trace : bool;
  mutable trace_dir : string;
  mutable smoke : bool;
  mutable benchmark : string;
  mutable describe : bool;
  mutable compare : (string * string) option;
}

let parse argv =
  let o =
    {
      workloads = Spec.workload_names;
      seed = 1;
      seconds = float_of_int Spec.run_seconds;
      trace = false;
      trace_dir = Filename.concat "perf" "out";
      smoke = false;
      benchmark = "BENCHMARK.json";
      describe = false;
      compare = None;
    }
  in
  let num conv flag v =
    match conv v with Some x -> x | None -> die "%s wants a number, got %s" flag v
  in
  let rec go = function
    | [] -> ()
    | "--workload" :: v :: rest ->
        o.workloads <- String.split_on_char ',' v;
        List.iter
          (fun w ->
            if not (List.mem w Spec.workload_names) then begin
              Printf.eprintf "perf: unknown workload %s (try: %s)\n" w
                (String.concat " " Spec.workload_names);
              exit 2
            end)
          o.workloads;
        go rest
    | "--seed" :: v :: rest ->
        o.seed <- num int_of_string_opt "--seed" v;
        go rest
    | "--seconds" :: v :: rest ->
        o.seconds <- num float_of_string_opt "--seconds" v;
        if o.seconds <= 0. then die "--seconds must be positive";
        go rest
    | "--trace" :: v :: rest ->
        (o.trace <-
           match v with
           | "0" -> false
           | "1" -> true
           | _ -> die "--trace wants 0 or 1, got %s" v);
        go rest
    | "--trace-dir" :: v :: rest ->
        o.trace_dir <- v;
        go rest
    | "--smoke" :: rest ->
        o.smoke <- true;
        go rest
    | "--benchmark" :: v :: rest ->
        o.benchmark <- v;
        go rest
    | "--describe" :: rest ->
        o.describe <- true;
        go rest
    | "compare" :: a :: b :: rest ->
        o.compare <- Some (a, b);
        go rest
    | arg :: _ ->
        Printf.eprintf "perf: unexpected argument %s\n" arg;
        usage ()
  in
  go (List.tl (Array.to_list argv));
  o

(* The contract the smoke run holds the output to: every metric
   BENCHMARK.json names is printed for every workload, with its unit. *)
let declared benchmark =
  let j = Perfkit.Json.parse (Perfkit.Json.read_file benchmark) in
  List.concat_map
    (fun section ->
      List.filter_map
        (fun m ->
          match
            ( Perfkit.Json.to_string (Perfkit.Json.member "name" m),
              Perfkit.Json.to_string (Perfkit.Json.member "unit" m) )
          with
          | Some n, Some u -> Some (n, u, section)
          | _ -> None)
        (Perfkit.Json.to_list (Perfkit.Json.member section j)))
    [ "end_to_end"; "per_layer" ]

let summary ~trace (o : H.outcome) =
  let wanted = if trace then Spec.layer else Spec.e2e in
  let metrics =
    List.filter_map
      (fun (m : Spec.metric) ->
        List.find_opt (fun (v : H.value) -> v.H.metric.Spec.name = m.Spec.name) o.H.values
        |> Option.map (fun (v : H.value) ->
               Printf.sprintf "%s:{\"value\":%s,\"unit\":%s}" (Spec.json_string m.Spec.name)
                 (H.number v.H.v) (Spec.json_string m.Spec.unit_)))
      wanted
  in
  Printf.printf "{\"correct\":%b,\"attempted\":%d,\"failed\":%d,\"metrics\":{%s}}\n%!"
    (o.H.failed = 0) o.H.attempted o.H.failed (String.concat "," metrics)

let () =
  let o = parse Sys.argv in
  if o.describe then print_string (Spec.describe ())
  else
    match o.compare with
    | Some (a, b) -> if not (Perfkit.Compare.run ~benchmark:o.benchmark a b) then exit 1
    | None ->
        let trace = o.trace || o.smoke in
        (* The smoke run checks its traces in memory and writes them to a
           temporary directory it removes afterwards. *)
        let trace_dir =
          if o.smoke then begin
            let d = Filename.temp_dir "perf-smoke" "" in
            at_exit (fun () ->
                Array.iter (fun f -> Sys.remove (Filename.concat d f)) (Sys.readdir d);
                Sys.rmdir d);
            d
          end
          else o.trace_dir
        in
        let p =
          {
            H.seed = o.seed;
            (* Smoke: ~0.2 s windows and 2 simulator seeds. *)
            seconds = (if o.smoke then 0.5 else o.seconds);
            sim1_seeds = (if o.smoke then 2 else 128);
            sim16_seeds = (if o.smoke then 2 else 48);
            kv_ops = (if o.smoke then 1 lsl 12 else 1 lsl 15);
            trace_dir = (if trace then Some trace_dir else None);
          }
        in
        let declared = if o.smoke then declared o.benchmark else [] in
        let ok = ref true in
        List.iter
          (fun name ->
            let wl = List.find (fun w -> w.H.name = name) H.workloads in
            (* Watchdog: a workload that livelocks is killed by SIGALRM's
               default action, a non-zero exit, rather than hanging the
               caller.  A healthy one takes two to three times [seconds]. *)
            ignore (Unix.alarm (max 60 (int_of_float (15. *. p.H.seconds))) : int);
            let t0 = Unix.gettimeofday () in
            let out = H.run_workload p wl in
            List.iter (H.emit ~workload:name ~seed:o.seed) out.H.values;
            List.iter
              (fun (span, count, total, self) ->
                Printf.printf
                  "{\"workload\":%s,\"span\":%s,\"count\":%d,\"total_ms\":%.3f,\"self_ms\":%.3f,\"kind\":\"span\"}\n"
                  (Spec.json_string name) (Spec.json_string span) count
                  (float_of_int total /. 1e6) (float_of_int self /. 1e6))
              out.H.spans;
            List.iter (fun e -> Printf.eprintf "perf: %s: run failed: %s\n" name e) out.H.errors;
            Printf.eprintf "perf: %s: %d runs, %d failed, %.1f s\n%!" name out.H.attempted
              out.H.failed (Unix.gettimeofday () -. t0);
            if out.H.purpose <> [] then begin
              List.iter
                (fun m -> Printf.eprintf "perf: workload %s: purpose check failed: %s\n" name m)
                out.H.purpose;
              exit 1
            end;
            List.iter
              (fun (n, u, section) ->
                match
                  List.find_opt (fun (v : H.value) -> v.H.metric.Spec.name = n) out.H.values
                with
                | Some v when v.H.metric.Spec.unit_ = u -> ()
                | Some v ->
                    ok := false;
                    Printf.eprintf "perf: %s: %s printed in %s, BENCHMARK.json says %s\n"
                      name n v.H.metric.Spec.unit_ u
                | None ->
                    ok := false;
                    Printf.eprintf "perf: %s: %s metric %s not printed\n" name section n)
              declared;
            if out.H.failed > 0 then ok := false;
            summary ~trace:o.trace out)
          o.workloads;
        if not !ok then exit 1
