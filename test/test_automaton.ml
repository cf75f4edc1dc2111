(* The decision automaton must agree exactly with the interpreting
   reference engine: stateless decisions over random manifests ×
   calls, batched vs. one-at-a-time verdicts, stateful
   (ownership/rule-budget) manifests under live mutation and random
   insert/delete/expiry interleavings, and the leaf-mapped
   explanations against [Filter_eval.explain]'s wording. *)

open Shield_openflow
open Shield_openflow.Types
open Shield_controller
open Shield_workload
open Sdnshield

let manifest = Test_util.manifest_exn
let ip = ipv4_of_string

let same_verdict d1 d2 =
  match (d1, d2) with
  | Api.Allow, Api.Allow | Api.Deny _, Api.Deny _ -> true
  | _ -> false

(* The interpreting reference engine, the bare automaton and the
   (automaton-backed) default engine must agree on stateless
   decisions. *)
let three_way_agree m call =
  let engine strategy =
    Engine.create ~record_state:false ~strategy
      ~ownership:(Ownership.create ())
      ~app_name:"cmp" ~cookie:1 m
  in
  let automaton = Automaton.of_manifest m in
  let d = Engine.check (engine `Interpreted) call in
  same_verdict d (Automaton.check automaton call)
  && same_verdict d (Engine.check (engine `Automaton) call)

let test_automaton_basic () =
  let m =
    manifest
      "PERM insert_flow LIMITING IP_DST 10.13.0.0 MASK 255.255.0.0 AND \
       MAX_PRIORITY 60000\n\
       PERM read_statistics LIMITING FLOW_LEVEL OR PORT_LEVEL"
  in
  let a = Automaton.of_manifest m in
  let insert nw_dst priority =
    Api.Install_flow
      ( 1,
        Flow_mod.add ~priority ~cookie:1
          ~match_:
            (Match_fields.make ~dl_type:Eth_ip
               ~nw_dst:(Match_fields.exact_ip (ip nw_dst))
               ())
          ~actions:[ Action.Output 1 ] () )
  in
  (match Automaton.check a (insert "10.13.1.2" 100) with
  | Api.Allow -> ()
  | Api.Deny why -> Alcotest.failf "conforming insert denied: %s" why);
  (match Automaton.check a (insert "10.14.1.2" 100) with
  | Api.Deny _ -> ()
  | Api.Allow -> Alcotest.fail "outside subnet should be denied");
  (match Automaton.check a (insert "10.13.1.2" 61000) with
  | Api.Deny _ -> ()
  | Api.Allow -> Alcotest.fail "over-priority should be denied");
  (match Automaton.check a (Api.Read_stats (Stats.request Stats.Port_level)) with
  | Api.Allow -> ()
  | Api.Deny _ -> Alcotest.fail "port-level stats should pass");
  (match Automaton.check a (Api.Read_stats (Stats.request Stats.Switch_level)) with
  | Api.Deny _ -> ()
  | Api.Allow -> Alcotest.fail "switch-level stats should fail");
  (match Automaton.check a Api.Read_topology with
  | Api.Deny why ->
    Alcotest.(check string)
      "missing-token message matches the engine's"
      "missing permission visible_topology" why
  | Api.Allow -> Alcotest.fail "missing token should fail");
  Alcotest.(check bool) "granted insert" true (Automaton.granted a Token.Insert_flow);
  Alcotest.(check bool)
    "not granted topology" false
    (Automaton.granted a Token.Visible_topology);
  let checks, denials = Automaton.stats a in
  Alcotest.(check int) "checks counted" 6 checks;
  Alcotest.(check int) "denials counted" 4 denials

(* Hash-consing must actually share: a manifest that repeats one filter
   across many tokens compiles to the node count of a single copy. *)
let test_subtree_sharing () =
  let filter =
    "IP_DST 10.0.0.0 MASK 255.0.0.0 AND MAX_PRIORITY 60000 AND TCP_DST 80"
  in
  let one = manifest (Printf.sprintf "PERM insert_flow LIMITING %s" filter) in
  let many =
    manifest
      (String.concat "\n"
         (List.map
            (fun tok -> Printf.sprintf "PERM %s LIMITING %s" tok filter)
            [ "insert_flow"; "delete_flow"; "send_packet_out"; "host_network" ]))
  in
  let s1 = Automaton.build_stats (Automaton.of_manifest one) in
  let s4 = Automaton.build_stats (Automaton.of_manifest many) in
  Alcotest.(check int) "four identical filters share every node" s1.Automaton.nodes
    s4.Automaton.nodes;
  Alcotest.(check bool) "sharing counted" true (s4.Automaton.shared > 0)

(* Interval fusion must preserve the conjunction-of-bounds semantics,
   including the vacuous pass on priority-less calls. *)
let test_priority_interval () =
  let m =
    manifest
      "PERM insert_flow LIMITING MAX_PRIORITY 60000 AND MIN_PRIORITY 100 AND \
       MAX_PRIORITY 50000"
  in
  let a = Automaton.of_manifest m in
  let e =
    Engine.create ~record_state:false ~strategy:`Interpreted
      ~ownership:(Ownership.create ())
      ~app_name:"prio" ~cookie:1 m
  in
  let insert priority =
    Api.Install_flow
      ( 1,
        Flow_mod.add ~priority ~cookie:1 ~match_:Match_fields.wildcard_all
          ~actions:[ Action.Output 1 ] () )
  in
  List.iter
    (fun p ->
      Alcotest.(check bool)
        (Printf.sprintf "priority %d agrees" p)
        true
        (same_verdict (Automaton.check a (insert p)) (Engine.check e (insert p))))
    [ 0; 99; 100; 50000; 50001; 60000; 65535 ]

(* Stateful manifests: ownership and rule budgets are read live through
   the environment, interleaved with mutations the engine records. *)
let test_stateful_ownership () =
  let ownership = Ownership.create () in
  let m =
    manifest
      "PERM insert_flow LIMITING OWN_FLOWS AND MAX_RULE_COUNT 2\n\
       PERM delete_flow LIMITING OWN_FLOWS"
  in
  let engine =
    Engine.create ~strategy:`Interpreted ~ownership ~app_name:"alice"
      ~cookie:1 m
    (* record_state defaults to true: approvals mutate the store *)
  in
  let env = Dispatch.env_of_ownership ~ownership ~cookie:1 in
  let a = Automaton.of_manifest ~env m in
  let insert nw_dst =
    Api.Install_flow
      ( 1,
        Flow_mod.add ~priority:100 ~cookie:1
          ~match_:
            (Match_fields.make ~dl_type:Eth_ip
               ~nw_dst:(Match_fields.exact_ip (ip nw_dst))
               ())
          ~actions:[ Action.Output 1 ] () )
  in
  let delete nw_dst =
    Api.Install_flow
      ( 1,
        Flow_mod.delete
          ~match_:(Match_fields.make ~nw_dst:(Match_fields.exact_ip (ip nw_dst)) ())
          () )
  in
  (* Check the automaton first at each step, against the same pre-state
     the engine's check-then-record will see. *)
  let agree label call =
    let da = Automaton.check a call in
    let de = Engine.check engine call in
    Alcotest.(check bool) label true (same_verdict da de)
  in
  agree "first insert" (insert "10.0.0.1");
  agree "second insert" (insert "10.0.0.2");
  (* Budget is 2 and alice now owns 2 rules: both must deny. *)
  (match Automaton.check a (insert "10.0.0.3") with
  | Api.Deny _ -> ()
  | Api.Allow -> Alcotest.fail "rule budget exceeded: automaton must deny");
  agree "third insert over budget" (insert "10.0.0.3");
  (* A foreign rule appears: deleting it violates OWN_FLOWS for both. *)
  Ownership.record ownership ~dpid:1
    (Flow_mod.add ~priority:5 ~cookie:2
       ~match_:(Match_fields.make ~nw_dst:(Match_fields.exact_ip (ip "10.9.9.9")) ())
       ~actions:[] ())
    ~cookie:2;
  agree "delete own flow" (delete "10.0.0.1");
  agree "delete foreign flow" (delete "10.9.9.9")

(* The same call re-decides after an ownership mutation: the DAG reads
   the rule budget live, so a verdict never outlives the state it was
   derived from. *)
let test_mutation_redecides () =
  let ownership = Ownership.create () in
  let m = manifest "PERM insert_flow LIMITING MAX_RULE_COUNT 1" in
  let env = Dispatch.env_of_ownership ~ownership ~cookie:1 in
  let a = Automaton.of_manifest ~env m in
  let fm =
    Flow_mod.add ~priority:100 ~cookie:1
      ~match_:(Match_fields.make ~nw_dst:(Match_fields.exact_ip (ip "10.0.0.1")) ())
      ~actions:[ Action.Output 1 ] ()
  in
  let call = Api.Install_flow (1, fm) in
  (match Automaton.check a call with
  | Api.Allow -> ()
  | Api.Deny why -> Alcotest.failf "under budget, must allow: %s" why);
  (* Fill the budget behind the automaton's back. *)
  Ownership.record ownership ~dpid:1 fm ~cookie:1;
  (match Automaton.check a call with
  | Api.Deny _ -> ()
  | Api.Allow -> Alcotest.fail "stale ALLOW served after mutation");
  Ownership.forget ownership ~dpid:1 ~match_:fm.Flow_mod.match_ ~cookie:1;
  match Automaton.check a call with
  | Api.Allow -> ()
  | Api.Deny why -> Alcotest.failf "budget freed again, must allow: %s" why

(* Batched and one-at-a-time verdicts must be identical, including
   counters, on the generated workload traces. *)
let test_batch_matches_single_on_trace () =
  let m = Perm_gen.generate ~complexity:Medium ~focus:`Insert () in
  let calls =
    Array.map fst (Api_trace.generate ~focus:`Insert ~violation_rate:0.3 ~n:512 ())
  in
  let a1 = Automaton.of_manifest m and a2 = Automaton.of_manifest m in
  let singles = Array.map (Automaton.check a1) calls in
  let batched = Automaton.check_batch a2 calls in
  Alcotest.(check int) "same length" (Array.length singles) (Array.length batched);
  Array.iteri
    (fun i d ->
      if not (same_verdict d batched.(i)) then
        Alcotest.failf "verdict %d diverges between batch and single" i)
    singles;
  Alcotest.(check bool)
    "same counters" true
    (Automaton.stats a1 = Automaton.stats a2);
  (* Engine's batched entry point (automaton strategy by default). *)
  let e =
    Engine.create ~record_state:false ~ownership:(Ownership.create ())
      ~app_name:"batch" ~cookie:1 m
  in
  let via_engine = Engine.check_batch e calls in
  Array.iteri
    (fun i d ->
      if not (same_verdict d via_engine.(i)) then
        Alcotest.failf "engine batch verdict %d diverges" i)
    singles

(* Explanations: the DAG's leaf-to-clause mapping must reproduce
   [Filter_eval.explain]'s account exactly (the engine's wording). *)
let explanations_agree m call =
  let engine =
    Engine.create ~record_state:false ~strategy:`Interpreted
      ~ownership:(Ownership.create ())
      ~app_name:"exp" ~cookie:1 m
  in
  let a = Automaton.of_manifest m in
  let de, ie = Engine.check_explained engine call in
  let da, ia = Automaton.check_explained a call in
  same_verdict de da && ie.Api.explain = ia.Api.explain

let test_explanations_basic () =
  let m =
    manifest
      "PERM insert_flow LIMITING (IP_DST 10.13.0.0 MASK 255.255.0.0 AND \
       MAX_PRIORITY 60000) OR (TCP_DST 80 OR TCP_DST 443)\n\
       PERM read_statistics LIMITING FLOW_LEVEL"
  in
  let calls =
    [ Api.Install_flow
        ( 1,
          Flow_mod.add ~priority:100 ~cookie:1
            ~match_:
              (Match_fields.make ~dl_type:Eth_ip
                 ~nw_dst:(Match_fields.exact_ip (ip "10.13.1.2"))
                 ())
            ~actions:[ Action.Output 1 ] () );
      Api.Install_flow
        ( 1,
          Flow_mod.add ~priority:65000 ~cookie:1
            ~match_:(Match_fields.make ~tp_dst:443 ())
            ~actions:[ Action.Output 1 ] () );
      Api.Read_stats (Stats.request Stats.Flow_level);
      Api.Read_stats (Stats.request Stats.Switch_level);
      Api.Read_topology ]
  in
  List.iter
    (fun call ->
      Alcotest.(check bool)
        (Fmt.str "explain %a" Api.pp_call call)
        true (explanations_agree m call))
    calls

(* Stateful interleavings ------------------------------------------------------

   Generated Figure-5 manifests whose flow tokens additionally carry
   OWN_FLOWS and a small MAX_RULE_COUNT, so the budget binds within a
   short run.  Each step is an insert or delete of one of a few
   matches (the last one outside the manifests' 10/8 core), a
   switch-side expiry observed by both engines, or a foreign app's
   rule landing in both stores. *)

type step =
  | Insert of int * bool  (* match index, over the priority bound *)
  | Delete of int
  | Expire of int
  | Foreign of int

let pool = 6

let pool_match i =
  let addr =
    if i = pool then "192.168.0.1" else Printf.sprintf "10.0.0.%d" (i + 1)
  in
  Match_fields.make ~dl_type:Eth_ip ~nw_dst:(Match_fields.exact_ip (ip addr)) ()

let step_call = function
  | Insert (i, high) ->
    Some
      (Api.Install_flow
         ( 1,
           Flow_mod.add
             ~priority:(if high then 61_000 else 100)
             ~cookie:1 ~match_:(pool_match i) ~actions:[ Action.Output 1 ] () ))
  | Delete i ->
    Some (Api.Install_flow (1, Flow_mod.delete ~match_:(pool_match i) ()))
  | Expire _ | Foreign _ -> None

let pp_step ppf = function
  | Insert (i, high) ->
    Fmt.pf ppf "insert %d%s" i (if high then " high" else "")
  | Delete i -> Fmt.pf ppf "delete %d" i
  | Expire i -> Fmt.pf ppf "expire %d" i
  | Foreign i -> Fmt.pf ppf "foreign %d" i

let stateful_arb =
  let open QCheck in
  let step =
    Gen.(
      let i = int_bound pool in
      frequency
        [ ( 5,
            map2 (fun i h -> Insert (i, h)) i
              (frequencyl [ (4, false); (1, true) ]) );
          (2, map (fun i -> Delete i) i);
          (2, map (fun i -> Expire i) i);
          (1, map (fun i -> Foreign i) i) ])
  in
  make
    ~print:(fun (seed, k, steps) ->
      Fmt.str "seed=%d budget=%d [%a]" seed k
        Fmt.(list ~sep:semi pp_step)
        steps)
    Gen.(
      triple (int_bound 1000) (int_range 1 4) (list_size (int_range 1 40) step))

let stateful_manifest ~seed ~budget =
  let bound =
    Filter.conj Filter.own_flows (Filter.atom (Filter.Max_rule_count budget))
  in
  List.map
    (fun (p : Perm.t) ->
      match p.Perm.token with
      | Token.Insert_flow | Token.Delete_flow ->
        { p with Perm.filter = Filter.conj p.Perm.filter bound }
      | _ -> p)
    (Perm_gen.generate ~seed ~complexity:Perm_gen.Medium ~focus:`Insert ())

let allows = function Api.Allow -> true | Api.Deny _ -> false

(* Both strategies, each over its own store, plus [Filter_eval] against
   the automaton engine's pre-step store: every verdict agrees, and so
   do the counters and the stores at the end. *)
let stateful_interleaving_agrees (seed, budget, steps) =
  let m = stateful_manifest ~seed ~budget in
  let engine strategy =
    let ownership = Ownership.create () in
    ( ownership,
      Engine.create ~strategy ~ownership ~app_name:"st" ~cookie:1 m )
  in
  let own_a, ea = engine `Automaton and own_i, ei = engine `Interpreted in
  let expected call =
    match Dispatch.token_of_call call with
    | None -> true
    | Some t ->
      Perm.grants_token m t
      && Filter_eval.eval
           (Dispatch.env_of_ownership ~ownership:own_a ~cookie:1)
           (Perm.filter_of m t) (Attrs.of_call call)
  in
  List.for_all
    (fun step ->
      match (step, step_call step) with
      | _, Some call ->
        let want = expected call in
        let da = Engine.check ea call and di = Engine.check ei call in
        allows da = want && allows di = want
      | Expire i, None ->
        let change =
          Api.Flow_expired { dpid = 1; match_ = pool_match i; cookie = 1 }
        in
        Engine.observe ea change;
        Engine.observe ei change;
        true
      | Foreign i, None ->
        let fm =
          Flow_mod.add ~priority:5 ~cookie:2 ~match_:(pool_match i)
            ~actions:[] ()
        in
        List.iter
          (fun own -> Ownership.record own ~dpid:1 fm ~cookie:2)
          [ own_a; own_i ];
        true
      | (Insert _ | Delete _), None -> assert false)
    steps
  && Engine.stats ea = Engine.stats ei
  && Ownership.all_rules own_a = Ownership.all_rules own_i

(* Property suites ----------------------------------------------------------- *)

let qsuite =
  [ QCheck.Test.make ~count:500
      ~name:"automaton = interpreted (stateless)"
      (QCheck.pair Test_perm_ops.manifest_arb Test_filters.call_arb)
      (fun (m, call) -> three_way_agree m call);
    QCheck.Test.make ~count:200 ~name:"check_batch = map check"
      (QCheck.pair Test_perm_ops.manifest_arb
         (QCheck.list_of_size (QCheck.Gen.int_range 0 40) Test_filters.call_arb))
      (fun (m, calls) ->
        let calls = Array.of_list calls in
        let a1 = Automaton.of_manifest m and a2 = Automaton.of_manifest m in
        let singles = Array.map (Automaton.check a1) calls in
        let batched = Automaton.check_batch a2 calls in
        Array.length singles = Array.length batched
        && Array.for_all2 same_verdict singles batched
        && Automaton.stats a1 = Automaton.stats a2);
    QCheck.Test.make ~count:300 ~name:"automaton explanations = engine's"
      (QCheck.pair Test_perm_ops.manifest_arb Test_filters.call_arb)
      (fun (m, call) -> explanations_agree m call) ]

(* The stateful differential runs as its own suite, [stateful-check]. *)
let stateful_suite =
  [ QCheck_alcotest.to_alcotest ~long:false
      (QCheck.Test.make ~count:100
         ~name:"automaton = interpreted = Filter_eval (stateful interleavings)"
         stateful_arb stateful_interleaving_agrees) ]

let suite =
  [ Alcotest.test_case "automaton allow/deny basics" `Quick test_automaton_basic;
    Alcotest.test_case "hash-consed subtree sharing" `Quick test_subtree_sharing;
    Alcotest.test_case "priority interval fusion" `Quick test_priority_interval;
    Alcotest.test_case "stateful ownership/budget agreement" `Quick
      test_stateful_ownership;
    Alcotest.test_case "mutation re-decides the same call" `Quick
      test_mutation_redecides;
    Alcotest.test_case "batch = single on workload trace" `Quick
      test_batch_matches_single_on_trace;
    Alcotest.test_case "explanations match (unit)" `Quick test_explanations_basic ]
  @ List.map (QCheck_alcotest.to_alcotest ~long:false) qsuite
