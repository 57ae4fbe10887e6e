(** Control-flow graphs over Caesium function bodies.

    The Caesium representation ({!Rc_caesium.Syntax.func}) already *is*
    a CFG — labelled blocks with explicit terminators — so this module
    only computes the derived structure the analysis passes share:
    successor/predecessor edges and reachability from the entry block.

    Edges are {e constant-folded}: a [CondGoto] whose condition is an
    integer literal (the elaboration of C's [while (1)]) contributes
    only the taken edge, and a [Switch] on a literal only the matching
    case.  Without this, every [while (1) { … return …; }] body would
    make its (never-entered) exit block look reachable and trip the
    missing-return lint on half the Figure-7 corpus.

    The graph is dense: every label gets an integer {e node id} once,
    and successors, predecessors, the reverse postorder and reachability
    live in arrays indexed by it, so the passes and {!Dataflow} never
    hash a label again.  Ids [0 .. n_blocks - 1] are the block labels in
    first-definition order; the ids above are labels a terminator (or
    the entry) names but no block defines.  Those are nodes with no
    block and no successors: reachable if a reachable block jumps there,
    never anyone's predecessor.

    A label defined twice keeps its {e last} block (and that block's
    successors), but every definition contributes its edges to the
    predecessor lists, in block order.  Construction is linear in the
    number of edges. *)

module Syntax = Rc_caesium.Syntax

type t = {
  func : Syntax.func;
  names : Names.t;  (** label ↦ node id *)
  n_blocks : int;  (** node ids below this label a block *)
  blocks : Syntax.block array;
      (** node id ↦ the last definition of its label, for ids below
          [n_blocks] *)
  def_ids : int array;  (** the node id of each of [func]'s blocks *)
  entry : int;
  succ : int array;
      (** the successors of every definition, folded and deduplicated,
          one run per definition *)
  succ_lo : int array;
  succ_hi : int array;
      (** node [v]'s successors are [succ.(succ_lo.(v) .. succ_hi.(v) - 1)],
          the run of its label's last definition *)
  pred : int array;
  pred_lo : int array;
      (** node [v]'s predecessors are [pred.(pred_lo.(v) .. pred_lo.(v + 1) - 1)],
          in block order, one entry per edge *)
  rpo : int array;
      (** the nodes reachable from the entry, in reverse postorder — the
          canonical iteration order for forward dataflow *)
  reachable : bool array;
}

let build (func : Syntax.func) : t =
  let defs = Array.of_list func.Syntax.blocks in
  let ndefs = Array.length defs in
  let edges =
    Array.fold_left
      (fun acc (_, (b : Syntax.block)) ->
        acc
        +
        match b.Syntax.term with
        | Syntax.Goto _ -> 1
        | Syntax.CondGoto _ -> 2
        | Syntax.Switch { cases; _ } -> 1 + List.length cases
        | Syntax.Return _ | Syntax.Unreachable -> 0)
      0 defs
  in
  (* at most one node per definition, per edge and for the entry *)
  let names = Names.create (ndefs + edges + 1) in
  let def_ids = Array.map (fun (l, _) -> Names.intern names l) defs in
  let n_blocks = Names.count names in
  let blocks =
    if ndefs = 0 then [||]
    else begin
      let blocks = Array.make n_blocks (snd defs.(0)) in
      Array.iteri (fun i (_, b) -> blocks.(def_ids.(i)) <- b) defs;
      blocks
    end
  in
  let entry = Names.intern names func.Syntax.entry in
  (* each definition's successors, as a run of [succ] starting at
     [start.(i)]; [seen.(id) = i] marks [id] as taken by definition [i]
     while its [Switch] fan-out is deduplicated *)
  let succ = Array.make (max edges 1) 0 in
  let start = Array.make (ndefs + 1) 0 in
  let seen = Array.make (ndefs + edges + 1) (-1) in
  let k = ref 0 in
  let push id =
    succ.(!k) <- id;
    incr k
  in
  Array.iteri
    (fun i (_, (b : Syntax.block)) ->
      start.(i) <- !k;
      match b.Syntax.term with
      | Syntax.Goto l -> push (Names.intern names l)
      | Syntax.CondGoto { cond = Syntax.IntConst (c, _); if_true; if_false; _ }
        ->
          push (Names.intern names (if c <> 0 then if_true else if_false))
      | Syntax.CondGoto { if_true; if_false; _ } ->
          let t = Names.intern names if_true in
          let f = Names.intern names if_false in
          push t;
          if f <> t then push f
      | Syntax.Switch { scrut = Syntax.IntConst (c, _); cases; default; _ } ->
          push
            (Names.intern names
               (match List.assoc_opt c cases with
               | Some l -> l
               | None -> default))
      | Syntax.Switch { cases; default; _ } ->
          let add l =
            let id = Names.intern names l in
            if seen.(id) <> i then begin
              seen.(id) <- i;
              push id
            end
          in
          List.iter (fun (_, l) -> add l) cases;
          add default
      | Syntax.Return _ | Syntax.Unreachable -> ())
    defs;
  start.(ndefs) <- !k;
  let nodes = Names.count names in
  let succ_lo = Array.make nodes 0 and succ_hi = Array.make nodes 0 in
  Array.iteri
    (fun i v ->
      succ_lo.(v) <- start.(i);
      succ_hi.(v) <- start.(i + 1))
    def_ids;
  (* predecessors: count into [pred_lo], prefix-sum, fill in block order *)
  let pred_lo = Array.make (nodes + 1) 0 in
  for e = 0 to !k - 1 do
    let s = succ.(e) in
    if s < n_blocks then pred_lo.(s + 1) <- pred_lo.(s + 1) + 1
  done;
  for v = 1 to nodes do
    pred_lo.(v) <- pred_lo.(v) + pred_lo.(v - 1)
  done;
  let pred = Array.make (max pred_lo.(nodes) 1) 0 in
  let fill = Array.sub pred_lo 0 nodes in
  for i = 0 to ndefs - 1 do
    for e = start.(i) to start.(i + 1) - 1 do
      let s = succ.(e) in
      if s < n_blocks then begin
        pred.(fill.(s)) <- def_ids.(i);
        fill.(s) <- fill.(s) + 1
      end
    done
  done;
  (* depth-first walk from the entry with an explicit stack; [next.(v)]
     is the position of [v]'s next successor, and the postorder reversed
     is the RPO *)
  let reachable = Array.make nodes false in
  let stack = Array.make nodes 0 and next = Array.make nodes 0 in
  let post = Array.make nodes 0 in
  let sp = ref 1 and np = ref 0 in
  reachable.(entry) <- true;
  stack.(0) <- entry;
  next.(entry) <- succ_lo.(entry);
  while !sp > 0 do
    let v = stack.(!sp - 1) in
    let e = next.(v) in
    if e < succ_hi.(v) then begin
      next.(v) <- e + 1;
      let s = succ.(e) in
      if not reachable.(s) then begin
        reachable.(s) <- true;
        next.(s) <- succ_lo.(s);
        stack.(!sp) <- s;
        incr sp
      end
    end
    else begin
      decr sp;
      post.(!np) <- v;
      incr np
    end
  done;
  let rpo = Array.init !np (fun i -> post.(!np - 1 - i)) in
  {
    func;
    names;
    n_blocks;
    blocks;
    def_ids;
    entry;
    succ;
    succ_lo;
    succ_hi;
    pred;
    pred_lo;
    rpo;
    reachable;
  }

(** The number of nodes. *)
let nodes (t : t) : int = Names.count t.names

let label (t : t) (id : int) : string = Names.name t.names id

let block (t : t) (id : int) : Syntax.block option =
  if id < t.n_blocks then Some t.blocks.(id) else None

(* label-keyed views, for callers that hold a label *)

let labels_of (t : t) (a : int array) lo hi : string list =
  List.init (hi - lo) (fun i -> label t a.(lo + i))

let succs_of (t : t) (l : string) : string list =
  match Names.find t.names l with
  | -1 -> []
  | v -> labels_of t t.succ t.succ_lo.(v) t.succ_hi.(v)

let preds_of (t : t) (l : string) : string list =
  match Names.find t.names l with
  | -1 -> []
  | v -> labels_of t t.pred t.pred_lo.(v) t.pred_lo.(v + 1)

let is_reachable (t : t) (l : string) : bool =
  match Names.find t.names l with -1 -> false | v -> t.reachable.(v)

(** The labels of {!rpo}. *)
let reachable_labels (t : t) : string list =
  labels_of t t.rpo 0 (Array.length t.rpo)

(** Blocks never reached from the entry, in declaration order. *)
let unreachable_blocks (t : t) : (string * Syntax.block) list =
  List.filteri
    (fun i _ -> not t.reachable.(t.def_ids.(i)))
    t.func.Syntax.blocks
