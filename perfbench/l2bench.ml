(* The CBench workloads (paper Figures 6 and 7): the L2 learning switch
   on 16 switches under the isolated runtime with two KSD threads,
   driven by one client thread in a closed loop.

   - cbench-latency: one packet-in outstanding, [Runtime.feed_sync].
   - cbench-throughput: bursts of packet-ins, [Runtime.feed_burst] then
     [Runtime.drain], one burst outstanding.

   With 16 switches the learning switch never knows a destination on
   the switch a packet-in arrives at (CBench round-robins switches and
   re-uses only the last four source MACs), so every event floods with
   one packet-out and installs no rule: the ownership store stays
   empty and per-event cost does not depend on run length. *)

open Shield_net
open Shield_controller
open Shield_apps
open Shield_workload
open Sdnshield
open Bench

let switches = 16
let app_name = "l2switch"
let burst = 64
let warmup_events = 2_000
let window_span = 0.25

let policy =
  "LET l2 = APP l2switch\n\
   ASSERT l2 <= { PERM pkt_in_event PERM read_payload PERM insert_flow \
   PERM send_pkt_out }"

(* Traced-run instrumentation, recorded from this file around calls into
   each layer.  [on] switches recording without rebuilding the
   deployment, so the traced run can measure its own untraced phase. *)
type tracer = {
  mutable on : bool;
  last_handle : float Atomic.t;  (** Handler time of the current event. *)
  calls : Shared.t;  (** [ctx.call] round trips. *)
  checks : Shared.t;  (** [checker.check] durations. *)
  batches : Shared.t;  (** [checker.check_batch] durations. *)
  batch_calls : int Atomic.t;
}

let tracer () =
  { on = false; last_handle = Atomic.make 0.; calls = Shared.create ();
    checks = Shared.create (); batches = Shared.create ();
    batch_calls = Atomic.make 0 }

let traced_app tr (app : App.t) =
  let handle ctx ev =
    if not tr.on then app.App.handle ctx ev
    else
      let call c =
        let t0 = now () in
        let r = ctx.App.call c in
        Shared.add tr.calls (now () -. t0);
        r
      in
      let t0 = now () in
      app.App.handle { ctx with App.call } ev;
      Atomic.set tr.last_handle (now () -. t0)
  in
  { app with App.handle }

let resolve (c : Api.checker) =
  match c.Api.snapshot with Some f -> f () | None -> c

(* The runtime resolves [snapshot] once per mediated call and uses the
   returned checker for every phase, so wrapping the resolved checker
   sees every check the engine makes for this app. *)
let traced_checker tr (live : Api.checker) =
  let wrap (c : Api.checker) =
    { c with
      Api.check =
        (fun call ->
          let t0 = now () in
          let d = c.Api.check call in
          Shared.add tr.checks (now () -. t0);
          d);
      check_batch =
        Option.map
          (fun batch calls ->
            let t0 = now () in
            let ds = batch calls in
            Shared.add tr.batches (now () -. t0);
            ignore (Atomic.fetch_and_add tr.batch_calls (Array.length calls));
            ds)
          c.Api.check_batch;
      snapshot = None }
  in
  { live with
    Api.snapshot =
      Some (fun () -> let c = resolve live in if tr.on then wrap c else c) }

type deployment = {
  dep : Deploy.t;
  runtime : Runtime.t;
  gen : Cbench.t;
  mutable fed : int;  (** Packet-ins injected, warm-up included. *)
}

let kernel () = Kernel.create (Dataplane.create (Topology.linear switches))

let teardown d =
  Runtime.shutdown d.runtime;
  Deploy.close d.dep

(* [tr] instruments the deployment (traced runs only). *)
let setup ?tr ~seed ~warmup () =
  let dep = Deploy.create ~policy in
  Deploy.install_exn dep app_name L2_switch.manifest_src;
  let app = L2_switch.app (L2_switch.create ~name:app_name ()) in
  let live = Epoch.checker dep.Deploy.epoch app_name in
  let app, checker =
    match tr with
    | None -> (app, live)
    | Some tr -> (traced_app tr app, traced_checker tr live)
  in
  let runtime =
    Runtime.create ~mode:(Runtime.Isolated { ksd_threads = 2 }) (kernel ())
      [ (app, checker) ]
  in
  let d = { dep; runtime; gen = Cbench.create ~seed ~switches (); fed = 0 } in
  warmup d;
  d

(* One operation of each mode, returning its cost; the packet-ins are
   generated before the clock starts. *)
let event_op d () =
  let ev = Cbench.next_packet_in d.gen in
  d.fed <- d.fed + 1;
  let t0 = now () in
  Runtime.feed_sync d.runtime ev;
  now () -. t0

let burst_op d () =
  let evs = Cbench.packet_ins d.gen burst in
  d.fed <- d.fed + burst;
  let t0 = now () in
  Runtime.feed_burst d.runtime evs;
  Runtime.drain d.runtime;
  now () -. t0

let warmup_sync d =
  for _ = 1 to warmup_events do
    ignore (event_op d ())
  done

let warmup_bursts d =
  for _ = 1 to warmup_events / burst do
    ignore (burst_op d ())
  done

(* Correctness: every packet-in reached the switch exactly once, none
   of the app's own grants was denied or suppressed, and no safety net
   of the runtime fired. *)
let check d =
  let v = Deploy.verdict () in
  let _calls, denials, delivered, suppressed = Runtime.stats d.runtime in
  let f = Runtime.fault_report d.runtime in
  Deploy.expect v (denials = 0) "%d denials of the switch's own grants" denials;
  Deploy.expect v (suppressed = 0) "%d suppressed deliveries" suppressed;
  Deploy.expect v (delivered = d.fed) "%d deliveries for %d packet-ins"
    delivered d.fed;
  Deploy.expect v
    (f.Runtime.failures + f.restarts + f.deadlines + f.rejections = 0)
    "runtime fault report not clean: %s"
    (Fmt.str "%a" Runtime.pp_fault_report f);
  v

type mode = Latency | Throughput

let warmup_of = function Latency -> warmup_sync | Throughput -> warmup_bursts
let ops_per_sample = function Latency -> 1 | Throughput -> burst

let op mode d = match mode with Latency -> event_op d | Throughput -> burst_op d

(* Untraced run: the end-to-end metrics. *)
let run mode ~seed ~seconds =
  let setup_s, m, parts =
    across_deployments ~seconds
      ~setup:(setup ~seed ~warmup:(warmup_of mode))
      ~op:(op mode)
      ~finish:(fun d ->
        let v = check d in
        teardown d;
        v)
  in
  let v = Deploy.merge (List.map snd parts) in
  let n = Array.length m.costs in
  let ops = n * ops_per_sample mode in
  let wall = Array.fold_left ( +. ) 0. m.costs in
  let e2e scaled =
    end_to_end ~scaled ~span:window_span
      ~per:(ops_per_sample mode) m
  in
  { attempted = ops; failed = min ops v.Deploy.failed;
    metrics = e2e true @ [ setup_metric m setup_s ];
    notes =
      (("sizes", Printf.sprintf "%d samples, %d packet-ins, %.3f s timed" n ops wall)
       :: raw_notes m (e2e false) setup_s
       :: stationarity_notes
            (worst_stationarity (List.map (fun (p, _) -> p.costs) parts)))
      @ Deploy.notes v }

(* The paper's "original" controller: monolithic runtime, no checker.
   Returns the p50 event latency and the p50 [ctx.call] (pure kernel
   execution) for the same CBench traffic. *)
let kernel_baseline ~seed ~seconds =
  let tr = tracer () in
  let app = traced_app tr (L2_switch.app (L2_switch.create ~name:app_name ())) in
  let runtime =
    Runtime.create ~mode:Runtime.Monolithic (kernel ()) [ (app, Api.allow_all) ]
  in
  let gen = Cbench.create ~seed ~switches () in
  let feed () = Runtime.feed_sync runtime (Cbench.next_packet_in gen) in
  for _ = 1 to warmup_events do
    feed ()
  done;
  let events = timed_loop ~seconds:(seconds /. 2.) feed in
  tr.on <- true;
  ignore (timed_loop ~seconds:(seconds /. 2.) feed);
  Runtime.shutdown runtime;
  (median events, median (Shared.samples tr.calls))

let hwm name =
  match List.assoc_opt name (Metrics.gauge_report ()) with
  | Some g -> float_of_int g.Metrics.hwm
  | None -> nan

(* Traced run: the per-layer metrics of the runtime path, from a timed
   phase that alternates untraced and traced segments.  cbench-latency
   reports the one-event path and the Figure 6 baseline;
   cbench-throughput reports the batched dispatch and queue depths. *)
let traced mode ~seed ~seconds =
  let tr = tracer () in
  let d = setup ~tr ~seed ~warmup:(warmup_of mode) () in
  let handles = Samples.create () and dispatch = Samples.create () in
  let op traced =
    tr.on <- traced;
    match mode with
    | Throughput -> burst_op d ()
    | Latency ->
      let dt = event_op d () in
      if traced then begin
        let h = Atomic.get tr.last_handle in
        Samples.add handles h;
        Samples.add dispatch (dt -. h)
      end;
      dt
  in
  let s = alternating ~seconds op in
  tr.on <- false;
  let on = s.on in
  let events = float_of_int (Array.length on * ops_per_sample mode) in
  let calls = Shared.samples tr.calls and checks = Shared.samples tr.checks in
  let batches = Shared.samples tr.batches in
  let batch_calls = Atomic.get tr.batch_calls in
  let ev_hwm = hwm ("queue:ev:" ^ app_name) and ksd_hwm = hwm "queue:ksd-reqs" in
  let v = check d in
  let rules = Deploy.rules_live d.dep and apps = Deploy.apps_live d.dep in
  teardown d;
  let call50 = pct 50. calls and check50 = pct 50. checks in
  let path =
    [ metric "runtime.call_p50_us" "us" (call50 *. 1e6);
      metric "runtime.call_p90_us" "us" (pct 90. calls *. 1e6);
      metric "runtime.calls_per_event" "count"
        (float_of_int (Array.length calls) /. events);
      metric "engine.check_ns" "ns" (check50 *. 1e9);
      metric "engine.checks_per_event" "count"
        (float_of_int (Array.length checks + batch_calls) /. events) ]
  in
  let own =
    match mode with
    | Latency ->
      let base_event, kernel_call = kernel_baseline ~seed ~seconds:(seconds /. 3.) in
      [ metric "runtime.dispatch_us" "us" (median (Samples.to_array dispatch) *. 1e6);
        metric "l2_switch.handle_us" "us" (median (Samples.to_array handles) *. 1e6);
        metric "event.p99_us" "us" (pct 99. s.off *. 1e6);
        metric "event.samples" "count" (float_of_int (Array.length s.off)) ]
      @ path
      @ [ metric "kernel.call_us" "us" (kernel_call *. 1e6);
          metric "baseline.event_p50_us" "us" (base_event *. 1e6);
          metric "runtime.hop_us" "us" ((call50 -. check50 -. kernel_call) *. 1e6) ]
    | Throughput ->
      [ metric "burst.p99_us" "us" (pct 99. s.off *. 1e6);
        metric "burst.samples" "count" (float_of_int (Array.length s.off));
        metric "engine.batch_calls" "count"
          (float_of_int batch_calls /. float_of_int (max 1 (Array.length batches)));
        metric "engine.batch_ns_per_call" "ns"
          (Array.fold_left ( +. ) 0. batches *. 1e9
          /. float_of_int (max 1 batch_calls));
        metric "channel.ev_queue_hwm" "count" ev_hwm;
        metric "channel.ksd_queue_hwm" "count" ksd_hwm ]
      @ path
  in
  { attempted = Array.length s.all * ops_per_sample mode;
    failed = v.Deploy.failed;
    metrics =
      own @ common_layer_metrics ~ops_per_sample:(ops_per_sample mode) ~rules ~apps s;
    notes = stationarity_notes (stationarity s.all) @ Deploy.notes v }
