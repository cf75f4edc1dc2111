(* Ownership-store tests: per-priority recording, snapshot/restore, and
   a two-domain hammer — one domain records while another reads the
   table under the store's lock; every read must see a rule count
   that only grows and never exceeds the writes issued, and the
   quiescent store must hold exactly one rule per write. *)

open Shield_openflow
open Sdnshield

let match_all = Match_fields.make ~dl_type:Types.Eth_ip ()

let add_rule own i =
  (* Distinct priority per mutation: [record] replaces only on equal
     (priority, match), so each add is exactly +1 rule. *)
  Ownership.record own ~dpid:1
    (Flow_mod.add ~priority:i ~cookie:1 ~match_:match_all ~actions:[] ())
    ~cookie:1

let rule_count own = List.length (Ownership.rules_at own 1)

let test_record_one_rule_per_priority () =
  let own = Ownership.create () in
  for i = 1 to 10 do add_rule own i done;
  Alcotest.(check int) "one rule per mutation" 10 (rule_count own)

let test_restore_swaps_content () =
  let own = Ownership.create () in
  add_rule own 1;
  let snap = Ownership.snapshot own in
  add_rule own 2;
  Alcotest.(check int) "two rules before restore" 2 (rule_count own);
  Ownership.restore own snap;
  Alcotest.(check (list int)) "restore brings back the snapshot's rules" [ 1 ]
    (List.map (fun r -> r.Ownership.priority) (Ownership.rules_at own 1))

let test_two_domain_hammer () =
  let own = Ownership.create () in
  let n = 20_000 in
  let writer () =
    for i = 1 to n do add_rule own i done
  in
  (* Reader: every locked read sees a whole number of writes, so the
     count is monotone and bounded by [n].  [samples] counts the reads
     taken while the writer was still running, so the test fails
     loudly if it stops overlapping the writes. *)
  let reader () =
    let violations = ref 0 and samples = ref 0 and last = ref 0 in
    while !last < n do
      let c = rule_count own in
      if c < !last || c > n then incr violations;
      if c < n then incr samples;
      last := max !last c
    done;
    (!violations, !samples)
  in
  let w = Domain.spawn writer in
  let violations, samples = reader () in
  Domain.join w;
  Alcotest.(check int) "no read saw the count shrink or overshoot" 0
    violations;
  Alcotest.(check bool) "hammer overlapped the writes" true (samples > 0);
  Alcotest.(check int) "quiescent: count = mutations" n (rule_count own)

let suite =
  [ Alcotest.test_case "record adds one rule per priority" `Quick
      test_record_one_rule_per_priority;
    Alcotest.test_case "restore swaps the content" `Quick
      test_restore_swaps_content;
    Alcotest.test_case "two-domain hammer: quiescent count" `Quick
      test_two_domain_hammer ]
