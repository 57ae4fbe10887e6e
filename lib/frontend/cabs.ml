(** Surface abstract syntax of the C subset ("Cabs"), with attached
    RefinedC attributes kept as raw strings until the elaborator parses
    them with the right environment in scope. *)

type attr = { a_name : string; a_args : string list; a_loc : Rc_util.Srcloc.t }

type ctype =
  | CInt of string  (** e.g. "unsigned long", resolved via {!Rc_caesium.Int_type.of_name} *)
  | CBool
  | CVoid
  | CPtr of ctype
  | CStructRef of string
  | CNamed of string  (** typedef name *)
  | CFn of ctype list * ctype  (** function type (via typedef); used
                                   through pointers for first-class
                                   function arguments *)

type binop =
  | BAdd | BSub | BMul | BDiv | BMod
  | BLt | BLe | BGt | BGe | BEq | BNe
  | BAnd | BOr  (** logical && / || *)
  | BShl | BShr
  | BBitAnd | BBitOr | BBitXor

type unop = UNeg | UNot | UBitNot

type expr = { e : expr_desc; eloc : Rc_util.Srcloc.t }

and expr_desc =
  | EId of string
  | EConst of int
  | ENull
  | EBool of bool
  | ESizeof of ctype
  | EUn of unop * expr
  | EBin of binop * expr * expr
  | EAssign of expr * expr  (** only as a statement-expression *)
  | EAssignOp of binop * expr * expr  (** x += e etc. *)
  | ECall of string * expr list
  | EMember of expr * string  (** e.f *)
  | EArrow of expr * string  (** e->f *)
  | EIndex of expr * expr  (** e[i] *)
  | EDeref of expr
  | EAddr of expr
  | ECast of ctype * expr
  | ECond of expr * expr * expr  (** e ? e : e *)

type stmt = { s : stmt_desc; sloc : Rc_util.Srcloc.t }

and stmt_desc =
  | SExpr of expr
  | SDecl of ctype * string * expr option
  | SIf of expr * stmt list * stmt list
  | SWhile of attr list * expr * stmt list
  | SFor of attr list * stmt option * expr option * expr option * stmt list
  | SReturn of expr option
  | SBreak
  | SContinue
  | SBlock of stmt list
  | SSwitch of expr * (int * stmt list) list * stmt list
      (** cases (with C fallthrough) and the default block *)

type field_decl = {
  fd_attrs : attr list;
  fd_type : ctype;
  fd_name : string;
}

type struct_decl = {
  sd_attrs : attr list;
  sd_name : string;
  sd_fields : field_decl list;
  sd_typedef : (bool * string) option;
      (** [Some (is_ptr, name)]: typedef of the struct ([false]) or of a
          pointer to it ([true], Figure 3's [chunks_t] pattern) *)
  sd_loc : Rc_util.Srcloc.t;
}

type fun_decl = {
  fn_attrs : attr list;
  fn_ret : ctype;
  fn_name : string;
  fn_params : (ctype * string) list;
  fn_body : stmt list option;  (** [None] for a prototype (spec only) *)
  fn_loc : Rc_util.Srcloc.t;
}

type decl =
  | DStruct of struct_decl
  | DTypedef of string * ctype
  | DFun of fun_decl

type file = { decls : decl list; file_name : string }
