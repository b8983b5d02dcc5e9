package core

import (
	"context"

	"achilles/internal/expr"
	"achilles/internal/solver"
)

// FoldOutcome and its values expose the §4 guard's fold outcomes to the
// external tests.
type FoldOutcome = foldOutcome

const (
	FoldResidual  = foldResidual
	FoldRefuted   = foldRefuted
	FoldGenerates = foldGenerates
)

// FoldBind exposes foldBind to the external tests.
var FoldBind = foldBind

// BindKeyOf returns the bindKey of a one-path predicate with the given
// message field expressions and path constraints.
func BindKeyOf(fields, constraints []*expr.Expr) string {
	pc := &ClientPredicate{NumFields: len(fields), MsgPrefix: "m", sharedVars: map[string]bool{}}
	cp := &ClientPath{Fields: fields, Constraints: constraints}
	pc.buildBindKey(cp)
	return cp.bindKey
}

// VerifyNotClient runs the §4 guard of a server analysis over pc for one
// concrete message and state world.
func VerifyNotClient(pc *ClientPredicate, msg []int64, state expr.Env) bool {
	a := &analysis{pc: pc, sol: solver.Default(), res: &Result{}, runCtx: context.Background(), bindReps: bindReps(pc)}
	return a.verifyNotClient(msg, state)
}
