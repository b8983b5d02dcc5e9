// paxos-localstate demonstrates the three local-state analysis modes of
// §3.4 on a Paxos acceptor in phase 2, then injects the discovered Trojan
// into a concrete Paxos group and breaks agreement.
//
// Run with: go run ./examples/paxos-localstate
package main

import (
	"context"
	"fmt"
	"log"

	"achilles"
	"achilles/internal/protocols/paxos"
)

func main() {
	// Mode 1 — Concrete Local State: run the system concretely into phase 2
	// with proposed value 7, then analyse. Any Accept with value != 7 is
	// Trojan in that world.
	run := analyse(paxos.ConcreteStateTarget(3, 7))
	fmt.Println("concrete local state (ballot=3, value=7):")
	for _, tr := range run.Analysis.Trojans {
		fmt.Printf("  Trojan Accept: %v  [type ballot value]\n", tr.Concrete)
	}

	// Mode 2 — Constructed Symbolic Local State: one analysis with a
	// symbolic proposed value covers every concrete world.
	srun := analyse(paxos.SymbolicStateTarget())
	fmt.Println("\nconstructed symbolic local state (one run, all worlds):")
	for _, tr := range srun.Analysis.Trojans {
		fmt.Printf("  Trojan class: %s\n", tr.Witness)
		fmt.Printf("  instantiated world %v, example %v\n", tr.StateEnv, tr.Concrete)
	}

	// Mode 3 — Over-approximate symbolic state is what the PBFT replica
	// model uses for its duplicate-request table (see pbft.ReplicaSrc and
	// the symbolic() intrinsic).

	// Impact: inject the Trojan into a live group — two learners disagree.
	g := paxos.NewGroup(3)
	if _, err := g.Propose(1, 7); err != nil {
		log.Fatal(err)
	}
	before, _ := g.Learn([]int{0, 1, 2})
	g.InjectAccept(1, 1, 9)
	g.InjectAccept(2, 1, 9)
	after, _ := g.Learn([]int{0, 1, 2})
	fmt.Printf("\nconcrete injection: learner saw %d before the attack, %d after — agreement broken\n",
		before, after)
}

// analyse runs both Achilles phases on t and blocks until they finish.
func analyse(t achilles.Target) *achilles.RunResult {
	sess, err := achilles.Start(context.Background(), t)
	if err != nil {
		log.Fatal(err)
	}
	run, err := sess.Wait()
	if err != nil {
		log.Fatal(err)
	}
	return run
}
