(* Shared plumbing for the benchmark workloads: sample buffers, exact
   percentiles, metric records, the stationarity self-check and the
   result line.  Every timer is [Metrics.now] (monotonic, seconds). *)

open Shield_controller

let now = Metrics.now

(* Growable float buffer: recording a sample is a bounds check and a
   store, so the untraced timed loops pay nothing else per operation. *)
module Samples = struct
  type t = { mutable a : float array; mutable n : int }

  let create () = { a = Array.make 4096 0.; n = 0 }

  let add t v =
    if t.n = Array.length t.a then begin
      let b = Array.make (2 * t.n) 0. in
      Array.blit t.a 0 b 0 t.n;
      t.a <- b
    end;
    t.a.(t.n) <- v;
    t.n <- t.n + 1

  let count t = t.n
  let to_array t = Array.sub t.a 0 t.n
end

(* Thread-safe sample set for values recorded on runtime threads (KSD
   deputies, app threads) in the traced runs. *)
module Shared = struct
  type t = { m : Mutex.t; s : Samples.t }

  let create () = { m = Mutex.create (); s = Samples.create () }

  let add t v =
    Mutex.lock t.m;
    Samples.add t.s v;
    Mutex.unlock t.m

  let samples t =
    Mutex.lock t.m;
    let a = Samples.to_array t.s in
    Mutex.unlock t.m;
    a
end

let sorted a =
  let a = Array.copy a in
  Array.sort Float.compare a;
  a

(** Exact percentile ([p] in 0..100), linear interpolation. *)
let pct p a = if Array.length a = 0 then nan else Metrics.percentile_sorted p (sorted a)

let median a = pct 50. a

(* Metrics ----------------------------------------------------------------- *)

type metric = { name : string; value : float; unit_ : string }

let metric name unit_ value = { name; value; unit_ }

(** The outcome of one workload phase. *)
type outcome = {
  attempted : int;
  failed : int;
  metrics : metric list;
  notes : (string * string) list;
      (** Diagnostics printed before the result line (failure reasons,
          stationarity verdict, sizes). *)
}

(** Allocation meter over a timed phase: words allocated per
    operation, from [Gc.quick_stat] deltas. *)
let alloc_words () =
  let s = Gc.quick_stat () in
  s.Gc.minor_words +. s.Gc.major_words -. s.Gc.promoted_words

(* Windows --------------------------------------------------------------- *)

(** Index ranges splitting per-operation costs (in recording order) into
    consecutive windows of about [span] seconds of timed work each. *)
let window_bounds ~span costs =
  let n = Array.length costs in
  let total = Array.fold_left ( +. ) 0. costs in
  let k = max 1 (min n (int_of_float (total /. span))) in
  let per = n / k in
  Array.init k (fun i -> (i * per, if i = k - 1 then n else (i + 1) * per))

let windows ~span costs =
  Array.map (fun (a, b) -> Array.sub costs a (b - a)) (window_bounds ~span costs)

(** The 10th percentile of a statistic over windows of about [span]
    seconds (the 90th when higher is better): the run read at its
    quietest tenth. *)
let quiet ~span ~higher stat costs =
  pct (if higher then 90. else 10.) (Array.map stat (windows ~span costs))

(* Stationarity self-check ----------------------------------------------- *)

(** The quietest-decile per-operation cost of the last third of the
    timed phase over that of the first third (windows of 0.25 s).  A
    workload whose cost depends on how long it ran (a growing rule set,
    a filling table, a leaking queue) drifts away from 1; host speed
    swings mostly do not, because both thirds are read at their
    quietest. *)
let stationarity costs =
  let n = Array.length costs in
  if n < 6 then 1.
  else
    let third = n / 3 in
    let q a = quiet ~span:0.25 ~higher:false median a in
    q (Array.sub costs (n - third) third) /. q (Array.sub costs 0 third)

(** The ratio farthest from 1 among several timed phases'. *)
let worst_stationarity phases =
  List.fold_left
    (fun acc costs ->
      let r = stationarity costs in
      if Float.abs (log r) > Float.abs (log acc) then r else acc)
    1. phases

(** Drift beyond this factor in either direction flags the run. *)
let stationarity_limit = 1.5

let stationarity_notes ratio =
  let ok = ratio <= stationarity_limit && ratio >= 1. /. stationarity_limit in
  [ ( "stationarity",
      Printf.sprintf "%s: last/first-third quiet cost ratio %.3f (limit %.2f)"
        (if ok then "ok" else "FLAGGED")
        ratio stationarity_limit ) ]

(* Traced runs ----------------------------------------------------------- *)

(** Costs of a traced run's timed phase, which alternates untraced and
    traced segments so that host phases and run-length drift fall on
    both alike. *)
type split = {
  off : float array;  (** Per-operation costs, recording off. *)
  on : float array;  (** Per-operation costs, recording on. *)
  all : float array;  (** Both, in order. *)
  words_per_op : float;  (** Words allocated per untraced operation. *)
}

(** [op traced] runs one operation, recording layer timings when
    [traced], and returns its cost.  Segments last [segment] seconds. *)
let alternating ?(segment = 0.25) ~seconds op =
  let off = Samples.create () and on = Samples.create () in
  let all = Samples.create () in
  let words = ref 0. and off_ops = ref 0 in
  let deadline = now () +. seconds in
  let rec run_segment traced =
    let w0 = alloc_words () in
    let seg_end = Float.min deadline (now () +. segment) in
    let rec go k =
      let c = op traced in
      Samples.add (if traced then on else off) c;
      Samples.add all c;
      if now () < seg_end then go (k + 1) else k + 1
    in
    let k = go 0 in
    if not traced then begin
      words := !words +. (alloc_words () -. w0);
      off_ops := !off_ops + k
    end;
    if now () < deadline then run_segment (not traced)
  in
  run_segment false;
  { off = Samples.to_array off; on = Samples.to_array on;
    all = Samples.to_array all;
    words_per_op = !words /. float_of_int (max 1 !off_ops) }

(** Tracing overhead: traced over untraced median cost, in percent. *)
let overhead_pct s = (median s.on /. median s.off -. 1.) *. 100.

(** The metrics every workload's traced run reports. *)
let common_layer_metrics ~ops_per_sample ~rules ~apps s =
  [ metric "ownership.rules_live" "count" (float_of_int rules);
    metric "apps.live" "count" (float_of_int apps);
    metric "alloc.words_per_op" "words" (s.words_per_op /. float_of_int ops_per_sample);
    metric "trace.overhead_pct" "%" (overhead_pct s);
    metric "stationarity.ratio" "ratio" (stationarity s.all) ]

(* Host-speed reference ------------------------------------------------------ *)

(* The host is a shared virtual machine whose speed drifts by up to 1.6x
   over minutes, for pure CPU loops and for this program alike.  Every
   timed phase therefore also times a fixed reference computation at
   regular intervals.  It is independent of the program under test, so
   no change to the program can move it, and end-to-end metrics are
   reported in nominal-host units: each window's reading is scaled by
   the reference's speed in that window. *)
module Reference = struct
  (* Walks around random cycles: one through 512 KiB, which stays in a
     core's own cache, and one through 16 MiB, which lives in the shared
     last-level cache that other tenants contend for.  Memory latency
     plus integer work, allocating nothing, so the program's heap and
     collector cannot change its cost. *)
  let cycle bits =
    let slots = 1 lsl bits in
    let perm = Array.init slots (fun i -> i) in
    let st = ref 0x2545F491 in
    for i = slots - 1 downto 1 do
      st := ((!st * 1103515245) + 12345) land 0x3FFFFFFF;
      let j = !st mod (i + 1) in
      let t = perm.(i) in
      perm.(i) <- perm.(j);
      perm.(j) <- t
    done;
    let next = Array.make slots 0 in
    for i = 0 to slots - 1 do
      next.(perm.(i)) <- perm.((i + 1) mod slots)
    done;
    next

  let near = lazy (cycle 16)
  let far = lazy (cycle 21)

  let walk next steps =
    let p = ref 0 and acc = ref 0 in
    for _ = 1 to steps do
      p := Array.unsafe_get next !p;
      acc := !acc + (!p lxor (!acc lsl 1))
    done;
    !acc

  let work () = walk (Lazy.force near) 4_000 + walk (Lazy.force far) 1_000

  let time () =
    let t0 = now () in
    ignore (Sys.opaque_identity (work ()));
    now () -. t0

  (** Seconds between two reference readings during a timed phase. *)
  let interval = 0.05

  (** The reference's time on the nominal host that end-to-end metrics
      are scaled to: its median on the 2-vCPU virtual machine the
      benchmark was sized on. *)
  let nominal = 800e-6
end

type measured = {
  costs : float array;  (** Per-operation costs, in order. *)
  refs : float array;  (** Reference readings over the same phase. *)
}

(** Run [op] (which returns its own cost) back to back for [seconds],
    timing the reference every {!Reference.interval}. *)
let measured ~seconds op =
  ignore (Reference.time ());
  let s = Samples.create () and r = Samples.create () in
  let deadline = now () +. seconds in
  let next_ref = ref (now ()) in
  let rec go () =
    Samples.add s (op ());
    let t = now () in
    if t >= !next_ref then begin
      Samples.add r (Reference.time ());
      next_ref := t +. Reference.interval
    end;
    if t < deadline then go ()
  in
  go ();
  { costs = Samples.to_array s; refs = Samples.to_array r }

(** Host slowness over the whole phase relative to the nominal host. *)
let slowdown m = median m.refs /. Reference.nominal

(** The end-to-end metrics, shared by every workload so that every run
    reports all of them.  [lat] holds the latency of the operation the
    client waits on, aligned with [m.costs] ([nan] where an operation
    is not one, e.g. a rolled-back transaction), in seconds per
    [lat_per] operations; [ops_per_s] counts [per] operations per
    sample.  Statistics are taken per window of about [span] seconds,
    read at the quietest tenth of the windows (10th percentile of the
    latencies, 90th of the rates), and scaled to the nominal host by the
    phase's median reference reading ([scaled:false] gives the raw
    values). *)
let end_to_end ?(scaled = true) ?(lat_per = 1) ?lat ~span ~per m =
  let lat = Option.value lat ~default:m.costs in
  let speed = if scaled then 1. /. slowdown m else 1. in
  let stats =
    Array.map
      (fun (a, b) ->
        let l =
          Array.of_list
            (List.filter (fun x -> not (Float.is_nan x))
               (Array.to_list (Array.sub lat a (b - a))))
        in
        let work = Array.fold_left ( +. ) 0. (Array.sub m.costs a (b - a)) in
        (pct 50. l, pct 90. l, float_of_int ((b - a) * per) /. work))
      (window_bounds ~span m.costs)
  in
  let across ~higher f =
    let v =
      Array.of_list
        (List.filter (fun x -> not (Float.is_nan x))
           (Array.to_list (Array.map f stats)))
    in
    pct (if higher then 90. else 10.) v
  in
  let us = 1e6 /. float_of_int lat_per *. speed in
  [ metric "op_p50_us" "us" (across ~higher:false (fun (p, _, _) -> p) *. us);
    metric "op_p90_us" "us" (across ~higher:false (fun (_, p, _) -> p) *. us);
    metric "ops_per_s" "1/s" (across ~higher:true (fun (_, _, r) -> r) /. speed) ]

(** Set-up time in nominal-host seconds, scaled like the timed phase. *)
let setup_metric m setup_s =
  metric "setup_s" "s" (setup_s /. slowdown m)

(** A diagnostic line with the unscaled end-to-end values. *)
let raw_notes m metrics setup_s =
  ( "unscaled",
    Printf.sprintf "host slowdown %.4f; %s, setup_s %.6g s" (slowdown m)
      (String.concat ", "
         (List.map (fun x -> Printf.sprintf "%s %.6g %s" x.name x.value x.unit_) metrics))
      setup_s )

(* Timed loops ------------------------------------------------------------- *)

(** Run [op] back to back until [seconds] of wall time have passed,
    recording each call's duration.  Returns the durations (seconds, in
    order) and the total timed wall time (the sum of the durations:
    untimed bookkeeping between operations is excluded). *)
let timed_loop ~seconds op =
  let s = Samples.create () in
  let deadline = now () +. seconds in
  let rec go () =
    let t0 = now () in
    op ();
    let t1 = now () in
    Samples.add s (t1 -. t0);
    if t1 < deadline then go ()
  in
  go ();
  Samples.to_array s

(** Deployments per untraced run.  Each is set up, measured for a
    share of the run and torn down in turn: [setup_s] is the median of
    their set-up times, and the end-to-end metrics pool their windows,
    so that one deployment's luck (a single deployment's cost moved by
    up to 35% between identical runs, host speed unchanged) weighs a
    fifth. *)
let deployments = 5

(** [setup ()] builds a deployment; [op d] is its timed operation;
    [finish d] checks and tears it down, returning its verdict.
    Returns the median set-up time, the pooled measurement and the
    verdicts in order. *)
let across_deployments ~seconds ~setup ~op ~finish =
  let runs =
    List.init deployments (fun _ ->
        let t0 = now () in
        let d = setup () in
        let setup_s = now () -. t0 in
        let m = measured ~seconds:(seconds /. float_of_int deployments) (op d) in
        (setup_s, m, finish d))
  in
  let ms = List.map (fun (_, m, _) -> m) runs in
  let pooled =
    { costs = Array.concat (List.map (fun m -> m.costs) ms);
      refs = Array.concat (List.map (fun m -> m.refs) ms) }
  in
  ( median (Array.of_list (List.map (fun (s, _, _) -> s) runs)),
    pooled,
    List.map (fun (_, m, v) -> (m, v)) runs )

(* Output ------------------------------------------------------------------ *)

let json_string s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | c when Char.code c < 0x20 -> Printf.bprintf b "\\u%04x" (Char.code c)
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

let json_float v = Printf.sprintf "%.17g" v

(** The result line: exactly [correct], [attempted], [failed],
    [metrics].  A non-finite metric makes the run incorrect: it is
    reported as [-1] so the line stays valid JSON. *)
let result_line ~correct ~attempted ~failed metrics =
  let finite = List.for_all (fun m -> Float.is_finite m.value) metrics in
  let body =
    List.map
      (fun m ->
        Printf.sprintf "%s: {\"value\": %s, \"unit\": %s}" (json_string m.name)
          (json_float (if Float.is_finite m.value then m.value else -1.))
          (json_string m.unit_))
      metrics
  in
  Printf.sprintf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    (correct && finite) attempted failed (String.concat ", " body)
