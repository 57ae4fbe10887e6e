(** A generic forward worklist dataflow framework over {!Cfg.t}.

    Instantiate {!Forward} with a (finite-height) domain — a carrier
    with equality and a meet — and supply a per-block transfer function;
    {!Forward.run} computes the greatest fixpoint of block *input*
    states by chaotic iteration.  Unvisited blocks are implicitly ⊤, so
    the meet is only ever taken over edges actually propagated, which is
    what a must-analysis (e.g. definite initialization) needs: a block's
    input is the meet over its *reachable* predecessors. *)

module Syntax = Rc_caesium.Syntax

module type DOMAIN = sig
  type state

  val equal : state -> state -> bool

  val meet : state -> state -> state
  (** combine the states flowing into a join point; must be a lower
      bound of its arguments for termination *)
end

module Forward (D : DOMAIN) = struct
  (** [run_edges cfg ~entry ~transfer] is the general engine:
      [transfer label block st] returns a {e per-successor-edge}
      out-state function, given the successor's label, so a block whose
      terminator branches on a fact established inside the block (the
      CAS-acquire idiom: out-state holds the lock only on the success
      edge) can propagate different states along its two edges.  Returns
      the fixpoint input state of every reachable node, as (node id,
      state) pairs in reverse postorder.

      The worklist is first-in first-out over node ids, with the states
      and the queued marks in arrays. *)
  let run_edges (cfg : Cfg.t) ~(entry : D.state)
      ~(transfer : string -> Syntax.block -> D.state -> string -> D.state) :
      (int * D.state) list =
    let n = Cfg.nodes cfg in
    let inputs = Array.make n entry in
    let has = Array.make n false in
    let queued = Array.make n false in
    (* a ring of node ids: a node is queued at most once at a time *)
    let ring = Array.make n 0 in
    let head = ref 0 and count = ref 0 in
    let push v =
      if not queued.(v) then begin
        queued.(v) <- true;
        ring.((!head + !count) mod n) <- v;
        incr count
      end
    in
    has.(cfg.Cfg.entry) <- true;
    push cfg.Cfg.entry;
    while !count > 0 do
      let v = ring.(!head) in
      head := (!head + 1) mod n;
      decr count;
      queued.(v) <- false;
      if v < cfg.Cfg.n_blocks then begin
        let out_on = transfer (Cfg.label cfg v) cfg.Cfg.blocks.(v) inputs.(v) in
        for e = cfg.Cfg.succ_lo.(v) to cfg.Cfg.succ_hi.(v) - 1 do
          let s = cfg.Cfg.succ.(e) in
          let out = out_on (Cfg.label cfg s) in
          if not has.(s) then begin
            inputs.(s) <- out;
            has.(s) <- true;
            push s
          end
          else
            let m = D.meet inputs.(s) out in
            if not (D.equal m inputs.(s)) then begin
              inputs.(s) <- m;
              push s
            end
        done
      end
    done;
    Array.fold_right
      (fun v acc -> if has.(v) then (v, inputs.(v)) :: acc else acc)
      cfg.Cfg.rpo []

  (** [run cfg ~entry ~transfer] returns the fixpoint input state of
      every reachable node.  [transfer label block st] is the state at
      the end of [block] given state [st] at its start; it is re-run as
      inputs shrink, so it must be a pure function of its arguments. *)
  let run (cfg : Cfg.t) ~(entry : D.state)
      ~(transfer : string -> Syntax.block -> D.state -> D.state) :
      (int * D.state) list =
    run_edges cfg ~entry ~transfer:(fun label block st ->
        let out = transfer label block st in
        fun _succ -> out)
end

(** The workhorse instance: sets of variable names under intersection —
    "definitely X on every path" facts. *)
module StringSet = Set.Make (String)

module Must_vars = Forward (struct
  type state = StringSet.t

  let equal = StringSet.equal
  let meet = StringSet.inter
end)
