(* policy-check (paper Figure 5): a seeded mixed insert/stats trace (5%
   violating) replayed straight through the live [Epoch.checker]s of 16
   apps holding Large manifests, with no runtime hop.

   Writes sit beside reads: every allowed insert is recorded in the
   shared ownership store, and once [window] rules are live the oldest
   is expired through [checker.observe (Flow_expired ...)].  The rule
   set therefore stays at [window] rules.  Checking cost grows with the
   number of installed rules ([Ownership] scans per-switch lists), so a
   workload whose rule set grew would measure its own run length. *)

open Shield_openflow
open Shield_controller
open Shield_workload
open Sdnshield
open Bench

let apps = 16
let window = 256
let block = 256
let trace_len = 65_536
let window_span = 0.25

let app_name i = Printf.sprintf "app%02d" i

(* The manifests are fixed, like the paper's hand-written Small/Medium/
   Large manifests; the seed varies the traffic.  Per-check cost depends
   strongly on manifest shape, so seeding the manifests too would make
   seed-to-seed spread swamp run-to-run spread. *)
let manifest_src i =
  Perm.to_string
    (Perm_gen.generate ~seed:(1009 + i) ~complexity:Perm_gen.Large
       ~focus:(if i land 1 = 0 then `Insert else `Stats)
       ())

(* Every even app gets a per-app boundary: all tokens, inserts confined
   to the conforming 10.0.0.0/8 core.  Generated manifests sit inside
   it, so reconciliation leaves every decision as the trace expects. *)
let policy () =
  let boundary =
    Perm.to_string
      (Perm.normalize
         (List.map
            (fun token ->
              let filter =
                if token = Token.Insert_flow then
                  Filter.ip_subnet Filter.F_ip_dst Perm_gen.conforming_subnet
                    Perm_gen.conforming_mask
                else Filter.True
              in
              { Perm.token; filter })
            Token.all))
  in
  String.concat "\n"
    (List.concat
       (List.init (apps / 2) (fun k ->
            let i = 2 * k in
            [ Printf.sprintf "LET b%d = APP %s" i (app_name i);
              Printf.sprintf "ASSERT b%d <= { %s }" i boundary ])))

type deployment = {
  dep : Deploy.t;
  checkers : Api.checker array;
  cookies : int array;
  trace : (Api.call * Api_trace.expected) array;
  live : (int * Types.dpid * Match_fields.t) Queue.t;
      (** Live recorded inserts, oldest first: (app, dpid, match). *)
  mutable pos : int;  (** Next trace index. *)
  mutable mismatches : int;
}

(* The deployment assigns cookies in first-install order. *)
let cookie_of_install_order i = i + 1

(* Replay one call through [check] of its app; record allowed inserts and
   expire the oldest live rule beyond the window through [observe]. *)
let step ?(check = fun (c : Api.checker) call -> c.Api.check call)
    ?(observe = fun (c : Api.checker) ch -> c.Api.observe ch) d =
  let i = d.pos in
  d.pos <- (if i + 1 = trace_len then 0 else i + 1);
  let app = i mod apps in
  let call, expected = d.trace.(i) in
  let decision = check d.checkers.(app) call in
  (match (decision, expected) with
  | Api.Allow, Api_trace.Should_allow | Api.Deny _, Api_trace.Should_deny -> ()
  | _ -> d.mismatches <- d.mismatches + 1);
  match (decision, call) with
  | Api.Allow, Api.Install_flow (dpid, fm) ->
    Queue.push (app, dpid, fm.Flow_mod.match_) d.live;
    if Queue.length d.live > window then begin
      let a, dpid, match_ = Queue.pop d.live in
      observe d.checkers.(a)
        (Api.Flow_expired { dpid; match_; cookie = d.cookies.(a) })
    end
  | _ -> ()

let run_block ?check ?observe d =
  for _ = 1 to block do
    step ?check ?observe d
  done

let teardown d = Deploy.close d.dep

let setup ~seed () =
  let dep = Deploy.create ~policy:(policy ()) in
  for i = 0 to apps - 1 do
    Deploy.install_exn dep (app_name i) (manifest_src i)
  done;
  let d =
    { dep;
      checkers = Array.init apps (fun i -> Epoch.checker dep.Deploy.epoch (app_name i));
      cookies = Array.init apps cookie_of_install_order;
      trace = Api_trace.generate_mixed ~seed ~n:trace_len ();
      live = Queue.create (); pos = 0; mismatches = 0 }
  in
  (* Warm-up: one pass over a quarter of the trace fills the window. *)
  for _ = 1 to trace_len / 4 / block do
    run_block d
  done;
  d

(* Correctness: every decision matched the trace's expectation and the
   rule set is bounded by the window (cookies agree with the store). *)
let check d =
  let v = Deploy.verdict () in
  Deploy.expect v (d.mismatches = 0) "%d decisions disagree with the trace"
    d.mismatches;
  let rules = Deploy.rules_live d.dep in
  Deploy.expect v (rules <= window) "%d rules live, window is %d" rules window;
  v

let per_check_ns times = Array.map (fun t -> t *. 1e9 /. float_of_int block) times

let run ~seed ~seconds =
  let setup_s, m, parts =
    across_deployments ~seconds ~setup:(setup ~seed)
      ~op:(fun d () ->
        let t0 = now () in
        run_block d;
        now () -. t0)
      ~finish:(fun d ->
        let v = check d in
        teardown d;
        v)
  in
  let v = Deploy.merge (List.map snd parts) in
  let n = Array.length m.costs in
  let checks = n * block in
  let wall = Array.fold_left ( +. ) 0. m.costs in
  let e2e scaled =
    end_to_end ~scaled ~lat_per:block ~span:window_span ~per:block m
  in
  { attempted = checks; failed = min checks v.Deploy.failed;
    metrics = e2e true @ [ setup_metric m setup_s ];
    notes =
      (("sizes", Printf.sprintf "%d blocks of %d checks, %.3f s timed" n block wall)
       :: raw_notes m (e2e false) setup_s
       :: stationarity_notes
            (worst_stationarity (List.map (fun (p, _) -> p.costs) parts)))
      @ Deploy.notes v }

(* Ladder rung: the same reconciled manifests and trace, decided by
   freshly built engines of one strategy over their own ownership
   store, under the same window discipline.  Returns ns per call. *)
let rung d ~strategy ~seconds =
  let ownership = Ownership.create () in
  let engines =
    Array.init apps (fun i ->
        match Epoch.current d.dep.Deploy.epoch (app_name i) with
        | None -> failwith ("app not live: " ^ app_name i)
        | Some r ->
          Engine.create ~strategy ~ownership ~app_name:(app_name i)
            ~cookie:d.cookies.(i) r.Epoch.manifest)
  in
  let d' =
    { d with
      checkers = Array.map Engine.checker engines; live = Queue.create (); pos = 0;
      mismatches = 0 }
  in
  let times = timed_loop ~seconds (fun () -> run_block d') in
  let wall = Array.fold_left ( +. ) 0. times in
  (wall *. 1e9 /. float_of_int (Array.length times * block), d'.mismatches)

let traced ~seed ~seconds =
  let d = setup ~seed () in
  d.mismatches <- 0;
  let all = Samples.create () and inserts = Samples.create ()
  and stats = Samples.create () and expires = Samples.create () in
  let timed_check (c : Api.checker) call =
    let t0 = now () in
    let r = c.Api.check call in
    let dt = now () -. t0 in
    Samples.add all dt;
    Samples.add (match call with Api.Install_flow _ -> inserts | _ -> stats) dt;
    r
  in
  let timed_observe (c : Api.checker) ch =
    let t0 = now () in
    c.Api.observe ch;
    Samples.add expires (now () -. t0)
  in
  let op traced =
    let t0 = now () in
    if traced then run_block ~check:timed_check ~observe:timed_observe d
    else run_block d;
    now () -. t0
  in
  let s = alternating ~seconds op in
  (* One slot resolution costs a few ns: time a block of them. *)
  let resolves =
    Array.init 1000 (fun _ ->
        let t0 = now () in
        for i = 0 to block - 1 do
          match d.checkers.(i mod apps).Api.snapshot with
          | Some f -> ignore (Sys.opaque_identity (f ()))
          | None -> ()
        done;
        (now () -. t0) *. 1e9 /. float_of_int block)
  in
  let rules = Deploy.rules_live d.dep and live_apps = Deploy.apps_live d.dep in
  let interp_ns, m1 = rung d ~strategy:`Interpreted ~seconds:(seconds /. 8.) in
  let auto_ns, m2 = rung d ~strategy:`Automaton ~seconds:(seconds /. 8.) in
  d.mismatches <- d.mismatches + m1 + m2;
  let v = check d in
  teardown d;
  let ns a = median (Samples.to_array a) *. 1e9 in
  let block_ns = per_check_ns s.off in
  { attempted = Array.length s.all * block; failed = v.Deploy.failed;
    metrics =
      [ metric "epoch.resolve_ns" "ns" (median resolves);
        metric "engine.check_ns" "ns" (ns all);
        metric "engine.insert_check_ns" "ns" (ns inserts);
        metric "engine.stats_check_ns" "ns" (ns stats);
        metric "ownership.expire_ns" "ns" (ns expires);
        metric "engine_interpreted.ns_per_call" "ns" interp_ns;
        metric "automaton.ns_per_call" "ns" auto_ns;
        metric "check_block.p99_ns" "ns" (pct 99. block_ns);
        metric "check_block.samples" "count" (float_of_int (Array.length block_ns)) ]
      @ common_layer_metrics ~ops_per_sample:block ~rules ~apps:live_apps s;
    notes = stationarity_notes (stationarity s.all) @ Deploy.notes v }
