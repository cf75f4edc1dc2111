(* Shared helpers for the benchmark harness: section headers, table
   printing, and a thin wrapper over Bechamel for the
   microbenchmarks. *)

open Bechamel
open Toolkit

let hr title =
  Fmt.pr "@.==================================================================@.";
  Fmt.pr "%s@." title;
  Fmt.pr "==================================================================@."

let subhr title = Fmt.pr "@.--- %s ---@." title

(** Print an aligned table: [header] row then [rows]. *)
let table header rows =
  let all = header :: rows in
  let cols = List.length header in
  let width c =
    List.fold_left (fun w row -> max w (String.length (List.nth row c))) 0 all
  in
  let widths = List.init cols width in
  let print_row row =
    List.iteri
      (fun c cell -> Fmt.pr "%-*s  " (List.nth widths c) cell)
      row;
    Fmt.pr "@."
  in
  print_row header;
  print_row (List.map (fun w -> String.make w '-') widths);
  List.iter print_row rows

(** Run a Bechamel test group; returns (name, ns/run) per test. *)
let run_bechamel ?(quota = 1.0) (test : Test.t) : (string * float) list =
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  let instance = Instance.monotonic_clock in
  let cfg =
    Benchmark.cfg ~limit:3000 ~quota:(Time.second quota) ~stabilize:true ()
  in
  let raw = Benchmark.all cfg [ instance ] test in
  let results = Analyze.all ols instance raw in
  Hashtbl.fold
    (fun name ols acc ->
      match Analyze.OLS.estimates ols with
      | Some (est :: _) -> (name, est) :: acc
      | _ -> acc)
    results []
  |> List.sort compare

let ns_to_ops ns = 1e9 /. ns

let fmt_ops ns = Printf.sprintf "%.2f M ops/s" (ns_to_ops ns /. 1e6)
let fmt_ns ns = Printf.sprintf "%.0f ns" ns
let fmt_us s = Printf.sprintf "%.1f us" (s *. 1e6)

(** Wall-clock one thunk. *)
let timed f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (r, Unix.gettimeofday () -. t0)

(** Persist a lab's measurements as a BENCH_*.json artifact, so the
    perf trajectory is part of the tree and not just of a terminal
    scrollback.  [path] is relative to the directory the bench was
    launched from — the repo root for `dune exec bench/main.exe`. *)
let write_json path (j : Shield_controller.Telemetry.Json.t) =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () ->
      output_string oc (Shield_controller.Telemetry.Json.to_string j);
      output_char oc '\n');
  Fmt.pr "@.wrote %s@." path

(** A count as a JSON number. *)
let num i = Shield_controller.Telemetry.Json.Num (float_of_int i)
