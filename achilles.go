// Package achilles is the public API of the Achilles reproduction: a tool
// that finds Trojan messages in distributed systems (Banabic, Candea,
// Guerraoui — ASPLOS 2014).
//
// A Trojan message is a message that correct servers accept but that no
// correct client can generate. Achilles extracts the client predicate PC
// (all messages correct clients send) and the server predicate PS (all
// messages servers accept) by symbolic execution of node models written in
// the NL language, and searches the difference PS ∧ ¬PC incrementally while
// exploring the server.
//
// # API v2: sessions
//
// The v2 surface is the Session API: Start launches a cancellable analysis
// under a context.Context, streams Trojan classes and progress while the
// exploration runs, and Wait returns the result. Functional options replace
// the struct-of-knobs:
//
//	server := achilles.MustCompile(serverSrc)
//	client := achilles.MustCompile(clientSrc)
//	sess, err := achilles.Start(ctx, achilles.Target{
//		Name:    "my-protocol",
//		Server:  server,
//		Clients: []achilles.ClientProgram{{Name: "client", Unit: client}},
//	}, achilles.WithParallelism(runtime.NumCPU()))
//	if err != nil { ... }
//	for ev := range sess.Events() {
//		if ev.Kind == achilles.EventTrojan {
//			fmt.Println(ev.Trojan) // streamed the moment it is confirmed
//		}
//	}
//	run, err := sess.Wait()
//
// Cancelling ctx (or hitting its deadline) aborts the exploration cleanly
// mid-frontier: Wait returns the context error together with the partial
// result, whose Truncated() reports true. WithFirstTrojan stops the whole
// fan-out at the first confirmed class — the fast path for "is this target
// vulnerable at all?" on deep protocols. See DESIGN.md ("API v2") for how
// the context and the events flow through the layers.
//
// WithParallelism fans the whole pipeline — client predicate extraction,
// predicate preprocessing and the server-side frontier — out over that many
// workers; the reported Trojan class set is identical for every value (see
// DESIGN.md, "Where the parallelism sits").
//
// Start is the one analysis entry point: a blocking run is Start followed
// by Wait, and a caller holding an AnalysisOptions struct passes it through
// WithAnalysisOptions.
//
// See examples/ for complete programs, LANGUAGE.md for the NL modelling-
// language reference (README.md carries the cheat sheet), DESIGN.md for the
// architecture, and EXPERIMENTS.md for the paper-vs-measured evaluation.
// Fleet-wide audits with persistent, diffable bundles are provided by
// cmd/achilles-audit on top of internal/campaign.
package achilles

import (
	"achilles/internal/core"
	"achilles/internal/lang"
	"achilles/internal/symexec"
)

// Re-exported types: the analysis surface.
type (
	// Target bundles a server model, its client models and the message
	// layout for one analysis.
	Target = core.Target
	// ClientProgram names one compiled client model.
	ClientProgram = core.ClientProgram
	// AnalysisOptions configure the server phase (mode, budgets, solver).
	// WithAnalysisOptions seeds a Session from it; the functional options
	// (WithMode, WithParallelism, ...) set single fields.
	AnalysisOptions = core.AnalysisOptions
	// RunResult carries the client predicate, the analysis result and the
	// per-phase timing split.
	RunResult = core.RunResult
	// TrojanReport describes one discovered Trojan message class.
	TrojanReport = core.TrojanReport
	// ClientPredicate is the extracted PC with its preprocessing artifacts.
	ClientPredicate = core.ClientPredicate
	// Mode selects the optimisation level (full, no-differentFrom,
	// a-posteriori).
	Mode = core.Mode
	// ExecOptions configure a symbolic or concrete engine run (local-state
	// modes, budgets) — the type of Target.ServerExec and ClientExec.
	// WithMaxStates overrides the budgets of both for one Session.
	ExecOptions = symexec.Options
	// Unit is a compiled NL node program.
	Unit = lang.Unit
)

// Analysis modes (see §3.3/§6.4 of the paper).
const (
	ModeOptimized       = core.ModeOptimized
	ModeNoDifferentFrom = core.ModeNoDifferentFrom
	ModeAPosteriori     = core.ModeAPosteriori
)

// Compile parses, checks and lowers an NL node program.
func Compile(src string) (*Unit, error) { return lang.Compile(src) }

// MustCompile is Compile for known-good sources; it panics on error.
func MustCompile(src string) *Unit { return lang.MustCompile(src) }

// ExtractClientPredicate runs only phase 1.
func ExtractClientPredicate(clients []ClientProgram, opts core.ExtractOptions) (*ClientPredicate, error) {
	return core.ExtractClientPredicate(clients, opts)
}
