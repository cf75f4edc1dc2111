(* market-churn: a seeded [Churn_gen] lifecycle script (install /
   upgrade / revoke, about 10% built to roll back) submitted through
   [Market.submit] by one client in a closed loop, against a policy
   that puts per-app boundaries on a quarter of the app pool.  The
   market is pre-populated during set-up, so the timed phase runs at
   the pool's steady state.  The data plane is idle: vet, reconcile,
   lint, verify, compile and publish are the work.

   [Churn_gen] names apps [app-NNN]; the policy lexer rejects ['-'], so
   the benchmark renames them [appNNN] before submitting. *)

open Shield_controller
open Shield_workload
open Sdnshield
open Bench

let pool = 48
let invalid_fraction = 0.1
let prefill = 200
let window_span = 1.0

(* Upper bound on timed transactions per second of --seconds; the
   script is cut to this length, and a run that exhausts it stops early
   (reported as a failed check, so the bound cannot bias a result). *)
let max_txn_rate = 1_000

let rename s =
  match String.index_opt s '-' with
  | Some i -> String.sub s 0 i ^ String.sub s (i + 1) (String.length s - i - 1)
  | None -> s

let app_name i = rename (Churn_gen.app_name i)

(* Every fourth app is bounded; every other bound also caps priority
   below what generated manifests ask for, so those installs are
   truncated (and the repair's minimality is certified). *)
let policy =
  String.concat "\n"
    (List.concat
       (List.init (pool / 4) (fun k ->
            let i = 4 * k in
            let insert =
              if k land 1 = 0 then "IP_DST 10.0.0.0 MASK 255.0.0.0"
              else "IP_DST 10.0.0.0 MASK 255.0.0.0 AND MAX_PRIORITY 30000"
            in
            [ Printf.sprintf "LET b%d = APP %s" i (app_name i);
              Printf.sprintf
                "ASSERT b%d <= { PERM insert_flow LIMITING %s PERM read_statistics }"
                i insert ])))

let catalogue_size = 64

let catalogue =
  Array.init catalogue_size (fun i ->
      Perm.to_string
        (Perm_gen.generate ~seed:(7919 + i) ~complexity:Perm_gen.Small
           ~focus:(if i land 1 = 0 then `Insert else `Stats)
           ()))

let script ~seed ~seconds =
  let length = prefill + int_of_float (seconds *. float_of_int max_txn_rate) in
  Churn_gen.script ~seed ~apps:pool ~invalid_fraction ~length ()
  |> List.map (fun (e : Churn_gen.entry) ->
         let r = e.Churn_gen.request in
         let manifest_src =
           match r.Market.kind with
           | Market.Revoke -> r.Market.manifest_src
           | _ when Result.is_error (Perm_parser.manifest_of_string r.Market.manifest_src)
             ->
             (* The generator's unparsable manifest: it must still be
                refused at vet. *)
             r.Market.manifest_src
           | _ -> catalogue.(Hashtbl.hash r.Market.manifest_src mod catalogue_size)
         in
         { e with
           Churn_gen.request =
             { r with Market.app = rename r.Market.app; manifest_src } })
  |> Array.of_list

type deployment = {
  dep : Deploy.t;
  entries : Churn_gen.entry array;
  mutable next : int;  (** Next script entry to submit. *)
  mutable originals : (string * string) list;
      (** Manifest sources of the live apps as submitted: the inputs
          of the next transaction's reconcile stage. *)
  lat : Samples.t;
      (** Per timed transaction: its latency if it committed, [nan] if
          it rolled back. *)
}

let teardown d = Deploy.close d.dep

let submit d =
  let e = d.entries.(d.next) in
  let r = e.Churn_gen.request in
  d.next <- d.next + 1;
  let o = Market.submit d.dep.Deploy.market r in
  (if Market.committed o then
     let rest = List.remove_assoc r.Market.app d.originals in
     d.originals <-
       (match r.Market.kind with
       | Market.Revoke -> rest
       | Market.Install | Market.Upgrade -> (r.Market.app, r.Market.manifest_src) :: rest));
  o

let setup ~entries () =
  let d = { dep = Deploy.create ~policy; entries; next = 0; originals = [];
      lat = Samples.create () } in
  for _ = 1 to prefill do
    ignore (submit d)
  done;
  d

(* Correctness: the ledger matches the script's ground truth exactly
   (valid entries commit, invalid ones roll back), the epoch trace is
   clean (a commit advances the epoch by one, a rollback leaves it) and
   the deployment's structural invariants hold. *)
let check d =
  let v = Deploy.verdict () in
  let ledger = Market.history d.dep.Deploy.market in
  Deploy.expect v (List.length ledger = d.next) "ledger holds %d txns, %d submitted"
    (List.length ledger) d.next;
  let _ =
    List.fold_left
      (fun prev (x : Market.txn) ->
        let e = d.entries.(x.Market.id - 1) in
        match x.Market.outcome with
        | Market.Committed { epoch; _ } ->
          Deploy.expect v e.Churn_gen.valid "txn %d committed but is invalid" x.Market.id;
          Deploy.expect v (epoch = prev + 1) "txn %d committed epoch %d after %d"
            x.Market.id epoch prev;
          epoch
        | Market.Rolled_back { stage; reason; epoch; _ } ->
          Deploy.expect v (not e.Churn_gen.valid) "txn %d rolled back at %s: %s"
            x.Market.id stage reason;
          Deploy.expect v (epoch = prev) "txn %d rolled back but epoch %d -> %d"
            x.Market.id prev epoch;
          prev)
      0 ledger
  in
  Deploy.expect v (Epoch.consistent d.dep.Deploy.epoch) "epoch invariants violated";
  Deploy.expect v (d.next < Array.length d.entries) "script exhausted after %d txns"
    d.next;
  v

let run ~seed ~seconds =
  let entries = script ~seed ~seconds in
  let setup_s, m, parts =
    across_deployments ~seconds ~setup:(setup ~entries)
      ~op:(fun d () ->
        if d.next >= Array.length d.entries then begin
          Samples.add d.lat nan;
          0.
        end
        else
          let t0 = now () in
          let o = submit d in
          let dt = now () -. t0 in
          Samples.add d.lat (if Market.committed o then dt else nan);
          dt)
      ~finish:(fun d ->
        let v = check d in
        let live = Deploy.apps_live d.dep in
        teardown d;
        (v, Samples.to_array d.lat, live))
  in
  let v = Deploy.merge (List.map (fun (_, (v, _, _)) -> v) parts) in
  let lat = Array.concat (List.map (fun (_, (_, l, _)) -> l) parts) in
  let committed l = List.filter (fun x -> not (Float.is_nan x)) (Array.to_list l) in
  let live = List.fold_left (fun _ (_, (_, _, n)) -> n) 0 parts in
  let txns = Array.length m.costs in
  let wall = Array.fold_left ( +. ) 0. m.costs in
  let e2e scaled =
    end_to_end ~scaled ~lat ~span:window_span ~per:1 m
  in
  { attempted = txns; failed = min txns v.Deploy.failed;
    metrics = e2e true @ [ setup_metric m setup_s ];
    notes =
      (("sizes",
        Printf.sprintf "%d txns (%d committed), %.3f s timed, %d apps live" txns
          (List.length (committed lat)) wall live)
       :: raw_notes m (e2e false) setup_s
       :: stationarity_notes
            (worst_stationarity
               (List.map (fun (_, (_, l, _)) -> Array.of_list (committed l)) parts)))
      @ Deploy.notes v }

(* Traced run ---------------------------------------------------------------- *)

(* Inputs of a committed install/upgrade, kept for the per-rule lint
   and minimality timings made after the timed phase. *)
type sample = {
  app : string;
  reconciled : Perm.manifest;  (** What the lint stage linted. *)
  inputs : (string * string) list;  (** Live apps' submitted sources. *)
}

let max_samples = 20

let time_it f =
  let t0 = now () in
  ignore (Sys.opaque_identity (f ()));
  now () -. t0

(* Each timing starts from empty normal-form and inclusion memo tables:
   these calls re-run work the commit already did, which would
   otherwise be served from the memo.  The median of three readings. *)
let cold f =
  median
    (Array.init 3 (fun _ ->
         Nf.clear_memo ();
         Inclusion.clear_memo ();
         time_it f))

let policy_ast () =
  match Vetting.vet_policy policy with
  | Vetting.Admitted a | Vetting.Degraded (a, _) -> a.Vetting.value
  | Vetting.Rejected _ -> failwith "benchmark policy rejected"

let parse_manifest =
  let memo = Hashtbl.create 64 in
  fun src ->
    match Hashtbl.find_opt memo src with
    | Some m -> m
    | None ->
      let m =
        match Vetting.vet_manifest src with
        | Vetting.Admitted a | Vetting.Degraded (a, _) -> a.Vetting.value
        | Vetting.Rejected _ -> failwith "committed manifest no longer vets"
      in
      Hashtbl.replace memo src m;
      m

(* Each lint rule alone on the manifest the lint stage linted. *)
let lint_rule_times samples =
  List.map
    (fun rule ->
      let times =
        Array.of_list
          (List.map
             (fun s ->
               cold (fun () ->
                   Lint.lint_manifest ~rules:[ rule ] ~label:("app " ^ s.app)
                     s.reconciled))
             samples)
      in
      metric (Printf.sprintf "lint.rule.%s_us" (Lint.rule_id rule)) "us"
        (median times *. 1e6))
    Lint.all_rules

(* The least-repair minimality check is part of the verify stage; its
   cost is verify with the transaction's repairs minus verify of the
   same repaired manifests without them, each the median of five warm
   readings taken in alternation. *)
let minimality_times samples =
  let ast = policy_ast () in
  Array.of_list
    (List.map
       (fun s ->
         let apps = List.map (fun (a, src) -> (a, parse_manifest src)) s.inputs in
         let report = Reconcile.run ~apps ast in
         let pairs =
           Array.init 5 (fun _ ->
               ( time_it (fun () -> Verify.verify_report ast report),
                 time_it (fun () -> Verify.verify ~apps:report.Reconcile.manifests ast) ))
         in
         median (Array.map fst pairs) -. median (Array.map snd pairs))
       samples)

let stage_names =
  [ "vet"; "reconcile"; "lint"; "verify"; "compile"; "publish" ]

let traced ~seed ~seconds =
  let entries = script ~seed ~seconds in
  let d = setup ~entries () in
  let delta0, full0 = Epoch.reconcile_counts d.dep.Deploy.epoch in
  let per_stage = List.map (fun n -> (n, Samples.create ())) stage_names in
  let stage_total = List.map (fun n -> (n, ref 0.)) stage_names in
  let commit_total = ref 0. and queue = Samples.create () in
  let commits = Samples.create () in
  let samples = ref [] in
  let observe id dt o =
    let stages = Market.stages_of o in
    Samples.add queue (dt -. List.fold_left (fun a (_, s) -> a +. s) 0. stages);
    if Market.committed o then begin
      Samples.add commits dt;
      commit_total := !commit_total +. dt;
      List.iter
        (fun (name, s) ->
          match List.assoc_opt name per_stage with
          | Some buf ->
            Samples.add buf s;
            let r = List.assoc name stage_total in
            r := !r +. s
          | None -> ())
        stages;
      let r = d.entries.(id).Churn_gen.request in
      if r.Market.kind <> Market.Revoke && List.length !samples < max_samples
         && Samples.count commits mod 5 = 1
      then
        match Epoch.current d.dep.Deploy.epoch r.Market.app with
        | Some rc ->
          samples :=
            { app = r.Market.app; reconciled = rc.Epoch.manifest;
              inputs = d.originals }
            :: !samples
        | None -> ()
    end
  in
  let exhausted = ref false in
  let op traced =
    if d.next >= Array.length d.entries then begin
      exhausted := true;
      0.
    end
    else
      let id = d.next in
      let t0 = now () in
      let o = submit d in
      let dt = now () -. t0 in
      if traced then observe id dt o;
      dt
  in
  let s = alternating ~segment:(Float.min 1.0 (seconds /. 4.)) ~seconds op in
  let delta1, full1 = Epoch.reconcile_counts d.dep.Deploy.epoch in
  let v = check d in
  Deploy.expect v (not !exhausted) "script exhausted";
  let live = Deploy.apps_live d.dep and rules = Deploy.rules_live d.dep in
  teardown d;
  let commits = Samples.to_array commits in
  let samples = List.rev !samples in
  let stage_metrics =
    List.concat_map
      (fun (name, buf) ->
        [ metric (Printf.sprintf "stage.%s_us" name) "us"
            (median (Samples.to_array buf) *. 1e6);
          metric (Printf.sprintf "stage.%s_share" name) "ratio"
            (!(List.assoc name stage_total) /. !commit_total) ])
      per_stage
  in
  let minimality = minimality_times (List.filteri (fun i _ -> i < 10) samples) in
  let delta = delta1 - delta0 and full = full1 - full0 in
  { attempted = Array.length s.all; failed = v.Deploy.failed;
    metrics =
      stage_metrics
      @ [ metric "stage.minimality_us" "us" (median minimality *. 1e6);
          metric "stage.minimality_share" "ratio" (median minimality /. median commits);
          metric "market.queue_us" "us" (median (Samples.to_array queue) *. 1e6);
          metric "reconcile.delta_share" "ratio"
            (float_of_int delta /. float_of_int (max 1 (delta + full)));
          metric "commit.p99_us" "us" (pct 99. commits *. 1e6);
          metric "commit.samples" "count" (float_of_int (Array.length commits)) ]
      @ lint_rule_times samples
      @ common_layer_metrics ~ops_per_sample:1 ~rules ~apps:live s;
    notes = stationarity_notes (stationarity s.all) @ Deploy.notes v }
