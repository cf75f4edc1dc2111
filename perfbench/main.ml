(* Benchmark entry point.

     main.exe --workload NAME --seed N --seconds S --trace 0|1

   Prints diagnostic lines (provenance, sizes, stationarity, failed
   checks) and, as the last line, one JSON object with exactly the keys
   correct / attempted / failed / metrics.  --trace 0 reports the
   end-to-end metrics of NAME; --trace 1 reports the per-layer ladder
   (see README.md). *)

open Bench

let workloads =
  [ "cbench-latency"; "cbench-throughput"; "policy-check"; "market-churn" ]

let untraced name ~seed ~seconds =
  match name with
  | "cbench-latency" -> L2bench.run L2bench.Latency ~seed ~seconds
  | "cbench-throughput" -> L2bench.run L2bench.Throughput ~seed ~seconds
  | "policy-check" -> Checkbench.run ~seed ~seconds
  | "market-churn" -> Churnbench.run ~seed ~seconds
  | _ -> invalid_arg name

let traced_one name ~seed ~seconds =
  match name with
  | "cbench-latency" -> L2bench.traced L2bench.Latency ~seed ~seconds
  | "cbench-throughput" -> L2bench.traced L2bench.Throughput ~seed ~seconds
  | "policy-check" -> Checkbench.traced ~seed ~seconds
  | "market-churn" -> Churnbench.traced ~seed ~seconds
  | _ -> invalid_arg name

(* Seconds given to each of the other workloads in a traced run. *)
let ladder_seconds = 1.5

(* The traced run reports the whole per-layer ladder: the chosen
   workload's own layers from a run of --seconds, and the layers only
   the other workloads exercise from a short run of each.  Where two
   workloads report the same layer metric, the chosen one's wins. *)
let traced name ~seed ~seconds =
  let runs =
    (name, traced_one name ~seed ~seconds)
    :: List.filter_map
         (fun w ->
           if w = name then None
           else Some (w, traced_one w ~seed ~seconds:ladder_seconds))
         workloads
  in
  let metrics =
    List.fold_left
      (fun acc (_, o) ->
        acc
        @ List.filter
            (fun m -> not (List.exists (fun a -> a.name = m.name) acc))
            o.metrics)
      [] runs
  in
  { attempted = List.fold_left (fun n (_, o) -> n + o.attempted) 0 runs;
    failed = List.fold_left (fun n (_, o) -> n + o.failed) 0 runs;
    metrics;
    notes =
      List.concat_map
        (fun (w, o) -> List.map (fun (k, v) -> (w ^ " " ^ k, v)) o.notes)
        runs }

let usage () =
  prerr_endline
    ("usage: main.exe --workload {" ^ String.concat "|" workloads
   ^ "} --seed N --seconds S --trace 0|1");
  exit 2

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10. and trace = ref 0 in
  let rec parse = function
    | "--workload" :: w :: rest -> workload := w; parse rest
    | "--seed" :: n :: rest -> seed := int_of_string n; parse rest
    | "--seconds" :: s :: rest -> seconds := float_of_string s; parse rest
    | "--trace" :: t :: rest -> trace := int_of_string t; parse rest
    | [] -> ()
    | _ -> usage ()
  in
  (try parse (List.tl (Array.to_list Sys.argv)) with Failure _ -> usage ());
  if (not (List.mem !workload workloads)) || !seconds <= 0. || (!trace <> 0 && !trace <> 1)
  then usage ();
  Printf.printf
    "{\"provenance\": {\"workload\": %s, \"seed\": %d, \"seconds\": %s, \
     \"trace\": %d, \"ocaml\": %s, \"domains\": %d}}\n%!"
    (json_string !workload) !seed (json_float !seconds) !trace
    (json_string Sys.ocaml_version)
    (Domain.recommended_domain_count ());
  let o =
    if !trace = 0 then untraced !workload ~seed:!seed ~seconds:!seconds
    else traced !workload ~seed:!seed ~seconds:!seconds
  in
  List.iter (fun (k, v) -> Printf.printf "%s: %s\n" k v) o.notes;
  print_endline
    (result_line ~correct:(o.failed = 0) ~attempted:o.attempted ~failed:o.failed
       o.metrics)
