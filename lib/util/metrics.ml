(** Verification metrics: monotonic counters and latency histograms.

    A registry is either [Off] — the zero-cost disabled representation —
    or [On] a pair of hash tables owned by a single writer (one function
    check, or the driver's root).  Cross-domain aggregation never shares
    a registry: each parallel function check owns its own, and the
    driver {!merge}s them in source order, so the merged counters are
    deterministic — a [-j 1] and a [-j 4] run produce byte-identical
    counter blocks.

    Timer values (latency sums and log₂ bucket counts) are measurements,
    not logical facts: they are deterministic only in *count*, never in
    value.  {!to_json} therefore splits the two — [~timings:false] keeps
    observation counts and zeroes the time data, mirroring
    [Driver.to_json]'s contract for wall-clock fields. *)

type timer = {
  mutable t_count : int;
  mutable t_total_ns : int64;
  buckets : int array;  (** log₂(ns) buckets, see {!bucket_of_ns} *)
}

let n_buckets = 40 (* 2^39 ns ≈ 9 min; plenty for one span *)

type state = {
  counters : (string, int ref) Hashtbl.t;
  timers : (string, timer) Hashtbl.t;
}

type t = Off | On of state

let off = Off
let on = function Off -> false | On _ -> true

let make () = On { counters = Hashtbl.create 64; timers = Hashtbl.create 32 }

(** A fresh registry iff the parent is enabled. *)
let child = function Off -> Off | On _ -> make ()

let incr (t : t) ?(by = 1) (name : string) =
  match t with
  | Off -> ()
  | On s -> (
      match Hashtbl.find_opt s.counters name with
      | Some r -> r := !r + by
      | None -> Hashtbl.replace s.counters name (ref by))

let bucket_of_ns (ns : int64) : int =
  let ns = if Int64.compare ns 0L < 0 then 0L else ns in
  let rec go i v =
    if i >= n_buckets - 1 || Int64.compare v 1L <= 0 then i
    else go (i + 1) (Int64.shift_right_logical v 1)
  in
  go 0 ns

let observe_ns (t : t) (name : string) (ns : int64) =
  match t with
  | Off -> ()
  | On s ->
      let tm =
        match Hashtbl.find_opt s.timers name with
        | Some tm -> tm
        | None ->
            let tm =
              { t_count = 0; t_total_ns = 0L; buckets = Array.make n_buckets 0 }
            in
            Hashtbl.replace s.timers name tm;
            tm
      in
      tm.t_count <- tm.t_count + 1;
      tm.t_total_ns <- Int64.add tm.t_total_ns (max 0L ns);
      let b = bucket_of_ns ns in
      tm.buckets.(b) <- tm.buckets.(b) + 1

let counter (t : t) (name : string) : int =
  match t with
  | Off -> 0
  | On s -> (
      match Hashtbl.find_opt s.counters name with Some r -> !r | None -> 0)

let timer_total_ns (t : t) (name : string) : int64 =
  match t with
  | Off -> 0L
  | On s -> (
      match Hashtbl.find_opt s.timers name with
      | Some tm -> tm.t_total_ns
      | None -> 0L)

let timer_count (t : t) (name : string) : int =
  match t with
  | Off -> 0
  | On s -> (
      match Hashtbl.find_opt s.timers name with
      | Some tm -> tm.t_count
      | None -> 0)

(** All counters (resp. timers) whose name starts with [prefix], with the
    prefix stripped, sorted by name — the query behind [--profile]'s
    per-rule and per-solver breakdowns. *)
let counters_with_prefix (t : t) ~(prefix : string) : (string * int) list =
  match t with
  | Off -> []
  | On s ->
      Hashtbl.fold
        (fun k r acc ->
          if String.starts_with ~prefix k then
            (String.sub k (String.length prefix)
               (String.length k - String.length prefix),
             !r)
            :: acc
          else acc)
        s.counters []
      |> List.sort compare

let timers_with_prefix (t : t) ~(prefix : string) :
    (string * int * int64) list =
  match t with
  | Off -> []
  | On s ->
      Hashtbl.fold
        (fun k tm acc ->
          if String.starts_with ~prefix k then
            (String.sub k (String.length prefix)
               (String.length k - String.length prefix),
             tm.t_count, tm.t_total_ns)
            :: acc
          else acc)
        s.timers []
      |> List.sort compare

(** [merge acc x] adds [x]'s counters and timers into [acc].  Determinism
    is the caller's obligation: merge in source order (the driver does),
    and two runs that did the same proof work agree on every counter. *)
let merge (acc : t) (x : t) =
  match (acc, x) with
  | On a, On b ->
      Hashtbl.iter (fun k r -> incr acc ~by:!r k) b.counters;
      Hashtbl.iter
        (fun k (tm : timer) ->
          let dst =
            match Hashtbl.find_opt a.timers k with
            | Some d -> d
            | None ->
                let d =
                  { t_count = 0; t_total_ns = 0L;
                    buckets = Array.make n_buckets 0 }
                in
                Hashtbl.replace a.timers k d;
                d
          in
          dst.t_count <- dst.t_count + tm.t_count;
          dst.t_total_ns <- Int64.add dst.t_total_ns tm.t_total_ns;
          Array.iteri
            (fun i n -> dst.buckets.(i) <- dst.buckets.(i) + n)
            tm.buckets)
        b.timers
  | _ -> ()

(** The one JSON encoding of a registry — the [--json] report's
    [metrics] block and the run ledger's [metrics] field.
    Deterministic: counters and timers in sorted name order.  With
    [~timings:false] the time-valued fields (totals and bucket
    distributions) are dropped and only observation counts remain, so
    the block is byte-identical across [-j N] and across machines. *)
let to_json ?(timings = true) (t : t) : Jsonout.t =
  let open Jsonout in
  match t with
  | Off -> Null
  | On s ->
      let counters =
        Hashtbl.fold (fun k r acc -> (k, Int !r) :: acc) s.counters []
        |> List.sort compare
      in
      let timer_json (tm : timer) =
        if not timings then Obj [ ("count", Int tm.t_count) ]
        else
          let buckets =
            Array.to_list tm.buckets
            |> List.mapi (fun i n -> (i, n))
            |> List.filter (fun (_, n) -> n > 0)
            |> List.map (fun (i, n) ->
                   Obj [ ("log2_ns", Int i); ("count", Int n) ])
          in
          Obj
            [
              ("count", Int tm.t_count);
              ("total_ns", Float (Int64.to_float tm.t_total_ns));
              ("buckets", List buckets);
            ]
      in
      let timers =
        Hashtbl.fold (fun k tm acc -> (k, timer_json tm) :: acc) s.timers []
        |> List.sort (fun (a, _) (b, _) -> compare a b)
      in
      Obj [ ("counters", Obj counters); ("timers", Obj timers) ]
