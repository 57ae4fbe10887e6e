(** Abstract syntax of Caesium, the control-flow-graph core language (§3).

    The frontend elaborates annotated C into this language almost 1-to-1
    (function bodies become CFGs of blocks; expressions are side-effect
    free — calls and assignments are statements, fixing a left-to-right
    evaluation order as Caesium does). *)

type ot =
  | OInt of Int_type.t
  | OPtr  (** pointer operand *)
[@@deriving eq]

type binop =
  | AddOp
  | SubOp
  | MulOp
  | DivOp
  | ModOp
  | AndOp
  | OrOp
  | XorOp
  | ShlOp
  | ShrOp
  | EqOp
  | NeOp
  | LtOp
  | LeOp
  | GtOp
  | GeOp
  | PtrPlusOp of Layout.t  (** [p + n], scaled by the element layout *)
  | PtrDiffOp of Layout.t  (** [p - q], divided by the element layout *)
[@@deriving eq]

type unop = NegOp | BitNotOp | LogNotOp [@@deriving eq]

(** The constructor's name: the operator text of the ⊢BINOP judgment.
    A pointer operator's layout sits in a Format box,
    "(PtrPlusOp unsigned char)", the form the golden forensics text
    ([test/mem_alloc_bug.forensics.expected]) pins. *)
let binop_name = function
  | AddOp -> "AddOp"
  | SubOp -> "SubOp"
  | MulOp -> "MulOp"
  | DivOp -> "DivOp"
  | ModOp -> "ModOp"
  | AndOp -> "AndOp"
  | OrOp -> "OrOp"
  | XorOp -> "XorOp"
  | ShlOp -> "ShlOp"
  | ShrOp -> "ShrOp"
  | EqOp -> "EqOp"
  | NeOp -> "NeOp"
  | LtOp -> "LtOp"
  | LeOp -> "LeOp"
  | GtOp -> "GtOp"
  | GeOp -> "GeOp"
  | PtrPlusOp l -> Fmt.str "(@[<2>PtrPlusOp@ %a@])" Layout.pp l
  | PtrDiffOp l -> Fmt.str "(@[<2>PtrDiffOp@ %a@])" Layout.pp l

(** The constructor's name: the operator text of the ⊢UNOP judgment. *)
let unop_name = function
  | NegOp -> "NegOp"
  | BitNotOp -> "BitNotOp"
  | LogNotOp -> "LogNotOp"

type expr =
  | IntConst of int * Int_type.t
  | NullConst
  | FnAddr of string  (** address of a function (first-class, §3) *)
  | VarLoc of string  (** the *location* of a local, argument or global *)
  | Use of { atomic : bool; layout : Layout.t; arg : expr }
      (** load from the location denoted by [arg] *)
  | FieldOfs of { arg : expr; struct_ : Layout.struct_layout; field : string }
  | BinOp of { op : binop; ot1 : ot; ot2 : ot; e1 : expr; e2 : expr }
  | UnOp of { op : unop; ot : ot; arg : expr }
  | CastIntInt of { from_ : Int_type.t; to_ : Int_type.t; arg : expr }
  | CastPtrPtr of expr  (** pointer-to-pointer casts are no-ops *)
[@@deriving eq]

type stmt =
  | Assign of { atomic : bool; layout : Layout.t; lhs : expr; rhs : expr }
  | Call of {
      dest : (Layout.t * expr) option;  (** where to store the result *)
      fn : expr;
      args : (Layout.t * expr) list;
    }
  | Cas of {
      layout : Layout.t;  (** must be an integer layout *)
      obj : expr;  (** ℓ_atom: pointer to the atomic object *)
      expected : expr;  (** ℓ_exp: pointer to the expected value *)
      desired : expr;  (** v_des: value to store on success *)
      dest : (Layout.t * expr) option;  (** bool result location *)
    }
  | Skip
  | ExprStmt of expr  (** evaluate and discard (e.g. a void call result) *)
  | Free of expr  (** frontend-internal: release a heap allocation *)

type terminator =
  | Goto of string
  | CondGoto of { ot : ot; cond : expr; if_true : string; if_false : string }
  | Switch of { ot : ot; scrut : expr; cases : (int * string) list; default : string }
  | Return of expr option
  | Unreachable

type block = { stmts : stmt list; term : terminator }

type func = {
  fname : string;
  args : (string * Layout.t) list;
  locals : (string * Layout.t) list;
  ret_layout : Layout.t;  (** [Layout.Void] for void functions *)
  blocks : (string * block) list;
  entry : string;
}

type program = {
  funcs : (string * func) list;
  globals : (string * Layout.t) list;
  structs : (string * Layout.struct_layout) list;
}

let find_func p name = List.assoc_opt name p.funcs
let find_block f label = List.assoc_opt label f.blocks

let empty_program = { funcs = []; globals = []; structs = [] }
