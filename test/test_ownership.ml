(* Ownership-store publication tests.

   The store's documented invariant (lib/core/ownership.ml): the
   generation counter is bumped inside the lock *before* the table
   mutation lands, so two lock-free generation reads that bracket a
   locked read of the table and agree on [g] guarantee the table
   content seen is exactly the generation-[g] state.  The two-domain
   hammer here pins this ordering by construction:
   every writer mutation adds exactly one rule, so generation and rule
   count must agree in any bracketed-stable observation.  Reversing
   the bump and the mutation would make the hammer fail (a reader
   could see k+1 rules inside a stable generation-k window). *)

open Shield_openflow
open Sdnshield

let match_all = Match_fields.make ~dl_type:Types.Eth_ip ()

let add_rule own i =
  (* Distinct priority per mutation: [record] replaces only on equal
     (priority, match), so each add is exactly +1 rule and +1 bump. *)
  Ownership.record own ~dpid:1
    (Flow_mod.add ~priority:i ~cookie:1 ~match_:match_all ~actions:[] ())
    ~cookie:1

let test_generation_counts_mutations () =
  let own = Ownership.create () in
  Alcotest.(check int) "fresh store at generation 0" 0 (Ownership.generation own);
  for i = 1 to 10 do add_rule own i done;
  Alcotest.(check int) "one bump per mutation" 10 (Ownership.generation own);
  Alcotest.(check int) "one rule per mutation" 10
    (List.length (Ownership.rules_at own 1))

let test_restore_bumps_generation () =
  (* Rollback must move the counter even when it restores bit-identical
     content: observers key on the counter, not on the rules. *)
  let own = Ownership.create () in
  add_rule own 1;
  let snap = Ownership.snapshot own in
  let g = Ownership.generation own in
  Ownership.restore own snap;
  Alcotest.(check bool) "restore bumps even when content is identical" true
    (Ownership.generation own > g)

let test_two_domain_hammer () =
  let own = Ownership.create () in
  let n = 20_000 in
  let writer () =
    for i = 1 to n do add_rule own i done
  in
  (* Reader: bracket every locked table read with two lock-free
     generation reads; whenever they agree, the incr-before-mutate
     ordering forces count = generation.  [stable] counts the samples
     where the bracket actually closed, so the test fails loudly if it
     stops exercising the invariant. *)
  let reader () =
    let violations = ref 0 and stable = ref 0 in
    while Ownership.generation own < n do
      let g1 = Ownership.generation own in
      let rules = Ownership.rules_at own 1 in
      let g2 = Ownership.generation own in
      if g1 = g2 then begin
        incr stable;
        if List.length rules <> g1 then incr violations
      end
    done;
    (!violations, !stable)
  in
  let w = Domain.spawn writer in
  let violations, stable = reader () in
  Domain.join w;
  Alcotest.(check int) "no bracketed sample ever saw count <> generation" 0
    violations;
  Alcotest.(check bool) "hammer produced stable samples" true (stable > 0);
  Alcotest.(check int) "quiescent: generation = mutations" n
    (Ownership.generation own);
  Alcotest.(check int) "quiescent: count = mutations" n
    (List.length (Ownership.rules_at own 1))

let suite =
  [ Alcotest.test_case "generation counts mutations" `Quick
      test_generation_counts_mutations;
    Alcotest.test_case "restore bumps generation" `Quick
      test_restore_bumps_generation;
    Alcotest.test_case "two-domain hammer: incr-before-mutate" `Quick
      test_two_domain_hammer ]
