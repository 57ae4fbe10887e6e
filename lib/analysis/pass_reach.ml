(** Unreachable code and missing returns (codes RC-L003 / RC-L004,
    sound warnings up to the constant-folded CFG of {!Cfg}).

    - RC-L003: a block that cannot be reached from the entry but
      contains source statements (or a [return]) — e.g. code after an
      [if] whose branches both return.  Elaboration also synthesizes
      {e empty} unreachable join blocks as a matter of course; those are
      compiler artifacts and are not reported.
    - RC-L004: in a non-void function, a *reachable* block ends in
      [Unreachable] — the terminator elaboration plants exactly where
      control falls off the end of the function, so some path reaches
      the closing brace without returning a value. *)

module Syntax = Rc_caesium.Syntax
module Layout = Rc_caesium.Layout
module Diagnostic = Rc_util.Diagnostic

(* A bare [Return None] does not count as content: elaboration
   synthesizes it to close the exit block of a [while (1)] loop in a
   void function, and for dead code it would anyway be a harmless lone
   [return;]. *)
let has_source_content (b : Syntax.block) : bool =
  List.exists (function Syntax.Skip -> false | _ -> true) b.Syntax.stmts
  || (match b.Syntax.term with Syntax.Return (Some _) -> true | _ -> false)

let run_fn ~cfg_of (ftc : Rc_refinedc.Typecheck.fn_to_check) :
    Diagnostic.t list =
  let func = ftc.Rc_refinedc.Typecheck.func in
  let index = ftc.Rc_refinedc.Typecheck.index in
  let spec = ftc.Rc_refinedc.Typecheck.spec in
  let cfg = cfg_of func in
  let stmt_loc = Rc_refinedc.Lang.stmt_loc index in
  let term_loc = Rc_refinedc.Lang.term_loc index in
  let fallback_loc label =
    match term_loc label with
    | Some l -> l
    | None ->
        Option.value ~default:Rc_util.Srcloc.dummy spec.Rc_refinedc.Rtype.fs_loc
  in
  let block_descr label =
    match Rc_refinedc.Lang.block_descr index label with
    | Some d -> Printf.sprintf " (%s)" d
    | None -> ""
  in
  let unreachable =
    List.filter_map
      (fun (label, b) ->
        if has_source_content b then
          let loc =
            match stmt_loc label 0 with
            | Some l -> Some l
            | None -> term_loc label
          in
          Some
            (Diagnostic.make ~severity:Diagnostic.Warning ~code:"RC-L003"
               ~loc:(Option.value ~default:(fallback_loc label) loc)
               ~hint:"delete the dead code, or fix the control flow above it"
               (Printf.sprintf "in %s: unreachable code%s" func.Syntax.fname
                  (block_descr label)))
        else None)
      (Cfg.unreachable_blocks cfg)
  in
  let missing_return =
    if func.Syntax.ret_layout = Layout.Void then []
    else
      Array.fold_right
        (fun id acc ->
          match Cfg.block cfg id with
          | Some { Syntax.term = Syntax.Unreachable; _ } ->
              Diagnostic.make ~severity:Diagnostic.Warning ~code:"RC-L004"
                ~loc:(fallback_loc (Cfg.label cfg id))
                ~hint:"add a return statement on every path"
                (Printf.sprintf
                   "in %s: control can reach the end of this non-void \
                    function without returning a value"
                   func.Syntax.fname)
              :: acc
          | _ -> acc)
        cfg.Cfg.rpo []
  in
  unreachable @ missing_return

let run ~(cfg_of : Syntax.func -> Cfg.t)
    (to_check : Rc_refinedc.Typecheck.fn_to_check list) : Diagnostic.t list =
  List.concat_map (run_fn ~cfg_of) to_check
