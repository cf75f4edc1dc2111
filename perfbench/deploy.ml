(* Deployments are built the way an app market builds them: a policy
   vetted by [Epoch.create], apps admitted through [Market.submit], and
   each app's live [Epoch.checker] handed to whoever mediates its
   calls.  No strategy, cache, trace or health argument is passed, so
   the library defaults are what gets measured. *)

open Shield_controller
open Sdnshield

type t = { epoch : Epoch.t; market : Market.t }

let create ~policy =
  match Epoch.create ~policy () with
  | Error e -> failwith ("benchmark policy rejected: " ^ e)
  | Ok epoch -> { epoch; market = Epoch.market epoch }

let install_exn t app src =
  match Market.submit t.market (Market.install app src) with
  | Market.Committed _ -> ()
  | Market.Rolled_back { stage; reason; _ } ->
    failwith (Printf.sprintf "install of %s rolled back at %s: %s" app stage reason)

let close t =
  Market.shutdown t.market;
  Epoch.close t.epoch

let rules_live t = List.length (Ownership.all_rules (Epoch.ownership t.epoch))
let apps_live t = List.length (Epoch.apps t.epoch)

(** Counted check failures: each failed condition adds one failed
    operation and a note naming it. *)
type verdict = { mutable failed : int; mutable why : string list }

let verdict () = { failed = 0; why = [] }

let expect v cond fmt =
  Printf.ksprintf
    (fun s ->
      if not cond then begin
        v.failed <- v.failed + 1;
        v.why <- s :: v.why
      end)
    fmt

let merge vs =
  { failed = List.fold_left (fun n v -> n + v.failed) 0 vs;
    why = List.concat_map (fun v -> v.why) vs }

let notes v =
  List.rev_map (fun s -> ("check-failed", s)) v.why
