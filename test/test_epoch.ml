(* Live-update tests (docs/CHURN.md): the staged lifecycle transaction
   (vet → reconcile → lint → verify → compile → publish), rollback at
   every injected fault site, delta vs whole-policy re-reconciliation,
   fail-closed revocation, the market wiring — and the swap-consistency
   property: a call issued concurrently with a hot-swap evaluates
   entirely against the old or entirely against the new manifest. *)

open Shield_openflow
open Shield_controller
open Sdnshield

let insert ?(dpid = 1) ?(nw_dst = "10.1.0.1") () =
  Api.Install_flow
    ( dpid,
      Flow_mod.add ~priority:100
        ~match_:
          (Match_fields.make ~dl_type:Types.Eth_ip
             ~nw_dst:(Match_fields.exact_ip (Test_util.ip nw_dst))
             ())
        ~actions:[ Action.Output 1 ] () )

let stats_call = Api.Read_stats (Stats.request Stats.Flow_level)

let deploy ?strict_verify ?(policy = "") () =
  match Epoch.create ?strict_verify ~policy () with
  | Ok t -> t
  | Error e -> Alcotest.failf "deployment rejected: %s" e

(* Plain views of the outcome's inline records, bindable as values. *)
type commit_view = {
  epoch : int;
  delta : bool;
  republished : string list;
  stages : (string * float) list;
}

type rollback_view = { stage : string; reason : string; at_epoch : int }

let committed what (o : Market.outcome) : commit_view =
  match o with
  | Market.Committed { epoch; delta; republished; stages } ->
    { epoch; delta; republished; stages }
  | Market.Rolled_back { stage; reason; _ } ->
    Alcotest.failf "%s: rolled back at %s (%s)" what stage reason

let rolled_back what (o : Market.outcome) : rollback_view =
  match o with
  | Market.Rolled_back { stage; reason; epoch; _ } ->
    { stage; reason; at_epoch = epoch }
  | Market.Committed _ -> Alcotest.failf "%s: expected rollback" what

(* Lifecycle ---------------------------------------------------------------- *)

let boundary_policy =
  "LET mon = APP mon\nASSERT mon <= { PERM read_statistics }"

let test_install_upgrade_revoke () =
  let t = deploy ~policy:boundary_policy () in
  Alcotest.(check int) "starts at epoch 0" 0 (Epoch.epoch t);
  let c =
    committed "install"
      (Epoch.apply t
         (Market.install "mon" "PERM read_statistics\nPERM insert_flow"))
  in
  Alcotest.(check int) "first commit is epoch 1" 1 c.epoch;
  (* "verify:minimality:minimal" is the advisory pseudo-stage the
     verify stage pushes so repair-minimality rides into txn spans. *)
  Alcotest.(check (list string)) "staged pipeline ran in order"
    [ "vet"; "reconcile"; "lint"; "verify"; "verify:minimality:minimal";
      "compile"; "publish" ]
    (List.map fst c.stages);
  (* The policy boundary truncated insert_flow away: the published
     record enforces the *reconciled* manifest. *)
  let ck = Epoch.checker t "mon" in
  Test_util.check_allow "granted perm serves" (ck.Api.check stats_call);
  Test_util.check_deny "boundary-truncated perm denied" (ck.Api.check (insert ()));
  let c2 =
    committed "upgrade" (Epoch.apply t (Market.upgrade "mon" "PERM read_statistics"))
  in
  Alcotest.(check int) "upgrade advances the epoch" 2 c2.epoch;
  Alcotest.(check bool) "still consistent" true (Epoch.consistent t);
  let c3 = committed "revoke" (Epoch.apply t (Market.revoke "mon")) in
  Alcotest.(check int) "revoke advances the epoch" 3 c3.epoch;
  (* Fail-closed: the live checker now denies; the deployment is empty
     but structurally consistent. *)
  Test_util.check_deny "revoked app denied" (ck.Api.check stats_call);
  Alcotest.(check (list (pair string int))) "no live apps" [] (Epoch.apps t);
  Alcotest.(check bool) "consistent after revoke" true (Epoch.consistent t);
  Epoch.close t

let test_request_validation () =
  let t = deploy () in
  ignore (committed "install" (Epoch.apply t (Market.install "a" "PERM insert_flow")));
  let r = rolled_back "double install" (Epoch.apply t (Market.install "a" "PERM insert_flow")) in
  Alcotest.(check string) "refused at vet" "vet" r.stage;
  Alcotest.(check string) "upgrade of unknown refused at vet" "vet"
    (rolled_back "upgrade missing" (Epoch.apply t (Market.upgrade "b" "PERM insert_flow"))).stage;
  Alcotest.(check string) "revoke of unknown refused at vet" "vet"
    (rolled_back "revoke missing" (Epoch.apply t (Market.revoke "b"))).stage;
  Alcotest.(check string) "hostile manifest refused at vet" "vet"
    (rolled_back "garbage" (Epoch.apply t (Market.install "c" "PERM frobnicate"))).stage;
  Alcotest.(check int) "no failed transaction moved the epoch" 1 (Epoch.epoch t);
  Alcotest.(check bool) "consistent" true (Epoch.consistent t);
  Epoch.close t

(* A commit lints once: vetting only admits, so the lint stage's pass
   over the reconciled manifest is the only one feeding the
   lint-<severity>:<rule> counters, on install and on upgrade. *)
let test_commit_lints_once () =
  let t = deploy () in
  let src = Test_lint.read_example "dirty.manifest" in
  let lint_counts f =
    Lint.reset_counters ();
    f ();
    Lint.stats ()
  in
  let one_pass () =
    match Epoch.current t "dirty" with
    | Some r -> ignore (Lint.lint_manifest ~label:"app dirty" r.Epoch.manifest)
    | None -> Alcotest.fail "dirty app is not live"
  in
  List.iter
    (fun (what, req) ->
      let commit = lint_counts (fun () -> ignore (committed what (Epoch.apply t req))) in
      let expected = lint_counts one_pass in
      Alcotest.(check bool) (what ^ ": the dirty manifest has findings") true
        (List.exists (fun (_, n) -> n > 0) expected);
      Alcotest.(check (list (pair string int)))
        (what ^ ": counters = one lint pass over the reconciled manifest")
        expected commit)
    [ ("install", Market.install "dirty" src);
      ("upgrade", Market.upgrade "dirty" src) ];
  Epoch.close t

(* A policy can name churned apps: [Churn_gen.app_name] emits names the
   policy lexer accepts, so a boundary on a generated app vets and
   truncates that app's grant. *)
let test_churn_app_governed () =
  let app = Shield_workload.Churn_gen.app_name 7 in
  let policy =
    Printf.sprintf
      "LET x = APP %s\n\
       ASSERT x <= { PERM insert_flow LIMITING IP_DST 10.1.0.0 MASK \
       255.255.0.0 }"
      app
  in
  (match Vetting.vet_policy policy with
  | Vetting.Admitted _ -> ()
  | Vetting.Degraded (_, notes) ->
    Alcotest.failf "policy naming %s degraded: %s" app
      (String.concat "; " notes)
  | Vetting.Rejected r ->
    Alcotest.failf "policy naming %s rejected: %s" app r.reason);
  let t = deploy ~policy () in
  ignore
    (committed "install"
       (Epoch.apply t (Market.install app "PERM insert_flow")));
  let ck = Epoch.checker t app in
  Test_util.check_allow "inside the boundary" (ck.Api.check (insert ()));
  Test_util.check_deny "outside the boundary"
    (ck.Api.check (insert ~nw_dst:"10.2.0.1" ()));
  Epoch.close t

(* Compile-stage budget --------------------------------------------------------

   The compile stage builds each published app's automaton under the
   deployment's limits.  The conjunction of two six-clause port
   disjunctions costs ~360 vetting steps but ~2300 automaton nodes
   (path-sensitive construction tracks the shared IN_PORT tests), so
   at 1000 steps it is admitted by vetting and then cut off at
   compile. *)
let test_compile_budget_rolls_back () =
  let side fmt =
    String.concat " OR " (List.init 6 (fun i -> Printf.sprintf fmt i (5 - i)))
  in
  let src =
    Printf.sprintf "PERM insert_flow LIMITING (%s) AND (%s)"
      (side "(TCP_DST %d AND IN_PORT %d)")
      (side "(TCP_SRC %d AND IN_PORT %d)")
  in
  let limits = { Budget.default_limits with Budget.max_steps = 1000 } in
  (match Vetting.vet_manifest ~limits src with
  | Vetting.Rejected r ->
    Alcotest.failf "precondition: vetting rejected: %s" r.reason
  | Vetting.Admitted _ | Vetting.Degraded _ -> ());
  let t =
    match Epoch.create ~limits ~policy:"" () with
    | Ok t -> t
    | Error e -> Alcotest.failf "deployment rejected: %s" e
  in
  ignore
    (committed "small app"
       (Epoch.apply t (Market.install "a" "PERM read_statistics")));
  let r =
    rolled_back "ports install" (Epoch.apply t (Market.install "ports" src))
  in
  Alcotest.(check string) "rolled back at compile" "compile" r.stage;
  Alcotest.(check bool)
    (Printf.sprintf "reason names the budget (%s)" r.reason)
    true
    (Test_util.contains_substring r.reason "budget exhausted");
  Alcotest.(check int) "epoch unchanged" 1 r.at_epoch;
  Test_util.check_deny "the rejected app stays fail-closed"
    ((Epoch.checker t "ports").Api.check (insert ()));
  Test_util.check_allow "the live app still serves"
    ((Epoch.checker t "a").Api.check stats_call);
  Alcotest.(check bool) "consistent" true (Epoch.consistent t);
  Epoch.close t

(* Rollback under injected faults ------------------------------------------- *)

let test_rollback_at_every_swap_site () =
  let sites =
    [ ("verify", fun () -> Faults.configure ~swap_verify:1.0 ());
      ("compile", fun () -> Faults.configure ~swap_compile:1.0 ());
      ("publish", fun () -> Faults.configure ~swap_publish:1.0 ()) ]
  in
  List.iter
    (fun (stage_name, arm) ->
      let t = deploy () in
      ignore (committed "seed app" (Epoch.apply t (Market.install "a" "PERM read_statistics")));
      let ck = Epoch.checker t "a" in
      Fun.protect ~finally:Faults.disarm (fun () ->
          arm ();
          let r =
            rolled_back ("faulted " ^ stage_name)
              (Epoch.apply t (Market.upgrade "a" "PERM read_statistics\nPERM insert_flow"))
          in
          Alcotest.(check string) (stage_name ^ " names the stage") stage_name r.stage;
          Alcotest.(check int) (stage_name ^ " keeps the epoch") 1 r.at_epoch);
      (* Fail-safe for existing traffic: the old record still serves. *)
      Test_util.check_allow (stage_name ^ ": old epoch serves") (ck.Api.check stats_call);
      Test_util.check_deny (stage_name ^ ": new grant never landed") (ck.Api.check (insert ()));
      Alcotest.(check bool) (stage_name ^ ": consistent") true (Epoch.consistent t);
      (* And the engine recovers: the same upgrade commits once disarmed. *)
      let c = committed (stage_name ^ ": retry") (Epoch.apply t (Market.upgrade "a" "PERM read_statistics\nPERM insert_flow")) in
      Alcotest.(check int) (stage_name ^ ": retry commits next epoch") 2 c.epoch;
      Test_util.check_allow (stage_name ^ ": new grant serves after retry") (ck.Api.check (insert ()));
      Epoch.close t)
    sites

let test_failed_install_is_fail_closed () =
  let t = deploy () in
  Fun.protect ~finally:Faults.disarm (fun () ->
      Faults.configure ~swap_publish:1.0 ();
      ignore (rolled_back "faulted install" (Epoch.apply t (Market.install "x" "PERM read_statistics"))));
  Test_util.check_deny "denied admission ⇒ checker denies"
    ((Epoch.checker t "x").Api.check stats_call);
  Alcotest.(check (list (pair string int))) "not admitted" [] (Epoch.apps t);
  Epoch.close t

(* Delta re-reconciliation --------------------------------------------------- *)

let test_delta_vs_full () =
  (* Two independent per-app boundaries: each app's lifecycle only
     touches its own statement, so the delta path applies. *)
  let t =
    deploy
      ~policy:
        "LET a = APP a\nASSERT a <= { PERM read_statistics }\n\
         LET b = APP b\nASSERT b <= { PERM insert_flow }"
      ()
  in
  let ca = committed "install a" (Epoch.apply t (Market.install "a" "PERM read_statistics")) in
  Alcotest.(check bool) "a reconciled by delta" true ca.delta;
  Alcotest.(check (list string)) "delta republishes nothing else" [] ca.republished;
  let cb = committed "install b" (Epoch.apply t (Market.install "b" "PERM insert_flow")) in
  Alcotest.(check bool) "b reconciled by delta" true cb.delta;
  let deltas, fulls = Epoch.reconcile_counts t in
  Alcotest.(check int) "two delta runs" 2 deltas;
  Alcotest.(check int) "no full runs" 0 fulls;
  Epoch.close t;
  (* An exclusivity constraint ranges over every app: no statement can
     be skipped, so lifecycle transactions take the whole-policy path. *)
  let t2 =
    deploy
      ~policy:"ASSERT EITHER { PERM network_access } OR { PERM insert_flow }"
      ()
  in
  let c = committed "install" (Epoch.apply t2 (Market.install "a" "PERM insert_flow")) in
  Alcotest.(check bool) "global constraint forces full" false c.delta;
  let deltas2, fulls2 = Epoch.reconcile_counts t2 in
  Alcotest.(check int) "no delta runs" 0 deltas2;
  Alcotest.(check bool) "full runs counted" true (fulls2 > 0);
  Epoch.close t2

let test_revoke_republishes_dependents () =
  (* b is bounded by a's manifest: revoking a shrinks the bound (an
     absent app's manifest is empty), so b must be republished
     truncated in the same commit. *)
  let t =
    deploy
      ~policy:"LET a = APP a\nLET b = APP b\nASSERT b <= a"
      ()
  in
  ignore (committed "install a" (Epoch.apply t (Market.install "a" "PERM read_statistics\nPERM insert_flow")));
  ignore (committed "install b" (Epoch.apply t (Market.install "b" "PERM read_statistics")));
  let ckb = Epoch.checker t "b" in
  Test_util.check_allow "b inside a's bound" (ckb.Api.check stats_call);
  let c = committed "revoke a" (Epoch.apply t (Market.revoke "a")) in
  Alcotest.(check (list string)) "b republished with the revocation" [ "b" ] c.republished;
  Test_util.check_deny "b truncated to the empty bound" (ckb.Api.check stats_call);
  Alcotest.(check bool) "consistent" true (Epoch.consistent t);
  Epoch.close t

(* Market wiring -------------------------------------------------------------- *)

let test_market_integration () =
  let t = deploy ~policy:boundary_policy () in
  let sandbox = Sandbox.create () in
  let m = Epoch.market ~sandbox t in
  ignore (Market.submit m (Market.install "mon" "PERM read_statistics"));
  ignore (Market.submit m (Market.upgrade "mon" "PERM read_statistics"));
  ignore (Market.submit m (Market.revoke "mon"));
  ignore (Market.submit m (Market.revoke "mon"));
  Market.shutdown m;
  let s = Market.stats m in
  Alcotest.(check int) "three commits" 3 s.Market.commits;
  Alcotest.(check int) "one rollback" 1 s.Market.rollbacks;
  Alcotest.(check int) "epoch counts commits" 3 (Epoch.epoch t);
  Alcotest.(check bool) "rollback notified via audit" true
    (List.exists
       (fun (e : Sandbox.audit_entry) -> e.Sandbox.action = "market-rollback")
       (Forensics.fault_log sandbox));
  Epoch.close t

(* Swap consistency ----------------------------------------------------------- *)

(* The tentpole property: a call racing with hot-swaps is decided
   entirely on one epoch.  Old and new manifests grant disjoint IP
   ranges, so a torn evaluation — or a window where the app is
   spuriously absent — shows up as a (Deny, Deny) or (Allow, Allow)
   pair on a single pinned snapshot. *)
let qsuite_swap =
  [ QCheck.Test.make ~count:15 ~name:"hot-swap pins every call to one epoch"
      QCheck.(pair (int_range 0 200) (int_range 2 40))
      (fun (octet, flips) ->
        let o1 = octet mod 100 and o2 = (octet mod 100) + 100 in
        let src o = Printf.sprintf "PERM insert_flow LIMITING IP_DST 10.%d.0.0 MASK 255.255.0.0" o in
        let call o = insert ~nw_dst:(Printf.sprintf "10.%d.0.1" o) () in
        let t =
          match Epoch.create ~policy:"" () with
          | Ok t -> t
          | Error e -> failwith e
        in
        ignore (Epoch.apply t (Market.install "app" (src o1)));
        let live = Epoch.checker t "app" in
        let resolve =
          match live.Api.snapshot with
          | Some f -> f
          | None -> failwith "live checker must expose snapshot"
        in
        let stop = Atomic.make false in
        let flipper () =
          for i = 1 to flips do
            let o = if i land 1 = 1 then o2 else o1 in
            ignore (Epoch.apply t (Market.upgrade "app" (src o)))
          done;
          Atomic.set stop true
        in
        let ok = ref true in
        let reader () =
          while not (Atomic.get stop) do
            (* One snapshot, two probes: exactly one range is granted
               on any single epoch. *)
            let ck = resolve () in
            let d1 = ck.Api.check (call o1) and d2 = ck.Api.check (call o2) in
            (match (d1, d2) with
            | Api.Allow, Api.Deny _ | Api.Deny _, Api.Allow -> ()
            | _ -> ok := false)
          done
        in
        let rd = Domain.spawn reader in
        flipper ();
        Domain.join rd;
        let consistent = Epoch.consistent t in
        Epoch.close t;
        !ok && consistent) ]

let suite =
  [ Alcotest.test_case "install/upgrade/revoke lifecycle" `Quick
      test_install_upgrade_revoke;
    Alcotest.test_case "request validation" `Quick test_request_validation;
    Alcotest.test_case "a commit lints once" `Quick test_commit_lints_once;
    Alcotest.test_case "churned app names are governable" `Quick
      test_churn_app_governed;
    Alcotest.test_case "compile-stage budget rolls back" `Quick
      test_compile_budget_rolls_back;
    Alcotest.test_case "rollback at every swap fault site" `Quick
      test_rollback_at_every_swap_site;
    Alcotest.test_case "failed install is fail-closed" `Quick
      test_failed_install_is_fail_closed;
    Alcotest.test_case "delta vs whole-policy reconciliation" `Quick
      test_delta_vs_full;
    Alcotest.test_case "revoke republishes dependents" `Quick
      test_revoke_republishes_dependents;
    Alcotest.test_case "market integration" `Quick test_market_integration ]
  @ List.map (QCheck_alcotest.to_alcotest ~long:false) qsuite_swap
