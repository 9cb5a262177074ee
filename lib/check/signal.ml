module Stats = Captured_stm.Stats

type t = {
  label : string;
  key : string;
  read : History.t -> Stats.t option -> int;
}

(* Frees are counted from the history, so a run cut short by an injected
   crash still shows the frees it executed. *)
let dfrees =
  {
    label = "deferred frees";
    key = "dfrees";
    read =
      (fun hist _ ->
        let n = ref 0 in
        History.iter hist (fun e ->
            match e.History.ev with
            | Captured_stm.Txn.Ev_free _ -> incr n
            | _ -> ());
        !n);
  }

(* A completed run's counter; 0 for a truncated or crashed run. *)
let of_stats label key f =
  { label; key; read = (fun _ -> Option.fold ~none:0 ~some:f) }

let forwarded =
  of_stats "forwarded reads" "forwarded" (fun s -> s.Stats.reads_forwarded)

let line_mate =
  of_stats "line-mate reads" "line_mate" (fun s -> s.Stats.reads_line_mate)

let rescued =
  of_stats "value rescues" "rescued" (fun s -> s.Stats.value_rescues)

let extended =
  of_stats "extended lock waits" "extended" (fun s -> s.Stats.waits_extended)

let rfw =
  of_stats "read-for-write acquisitions" "rfw" (fun s -> s.Stats.rfw_acquires)

let all = [| dfrees; forwarded; line_mate; rescued; extended; rfw |]

let keyed counts =
  Array.to_list (Array.map2 (fun s n -> (s.key, n)) all counts)
