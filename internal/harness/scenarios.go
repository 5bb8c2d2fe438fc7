package harness

import (
	"context"
	"fmt"

	"repro/internal/failure"
	"repro/internal/quorum"
)

// e15ScenarioCatalog runs the decision procedure and metrics over the
// library's catalog of realistic failure scenarios, showing how GQS
// connectivity requirements specialize across them. It extends the paper's
// Example-based evaluation to deployment-shaped fail-prone systems.
func e15ScenarioCatalog(context.Context, Config) (*Table, error) {
	t := NewTable("E15", "Scenario catalog: GQS existence + structural metrics",
		"scenario", "n", "patterns", "GQS", "write quorums (min-max)", "read load", "U_f (min-max)")

	type scenario struct {
		name string
		sys  failure.System
	}
	var scenarios []scenario
	scenarios = append(scenarios,
		scenario{"Figure 1 (paper)", failure.Figure1()},
		scenario{"Minority crash n=5", failure.Minority(5)},
		scenario{"Ingress loss n=6", failure.IngressLoss(6)},
		scenario{"Egress loss n=6", failure.EgressLoss(6)},
		scenario{"One-way ring n=5", failure.OneWayRing(5)},
	)
	if p, err := failure.Partition(5, 3); err == nil {
		scenarios = append(scenarios, scenario{"Partition n=5 maj=3", p})
	}
	if sp, err := failure.SoftPartition(5, 3); err == nil {
		scenarios = append(scenarios, scenario{"Soft partition n=5 maj=3", sp})
	}

	for _, sc := range scenarios {
		g := quorum.Network(sc.sys.N)
		qs, ok := quorum.Find(g, sc.sys)
		if !ok {
			t.AddRow(sc.name, fmt.Sprintf("%d", sc.sys.N),
				fmt.Sprintf("%d", len(sc.sys.Patterns)), "no", "-", "-", "-")
			continue
		}
		if err := qs.Validate(); err != nil {
			return nil, fmt.Errorf("E15 %s: witness invalid: %w", sc.name, err)
		}
		m, err := quorum.ComputeMetrics(qs)
		if err != nil {
			return nil, fmt.Errorf("E15 %s: %w", sc.name, err)
		}
		t.AddRow(sc.name,
			fmt.Sprintf("%d", sc.sys.N),
			fmt.Sprintf("%d", len(sc.sys.Patterns)),
			"yes",
			fmt.Sprintf("%d-%d", m.MinWriteQuorum, m.MaxWriteQuorum),
			fmt.Sprintf("%.2f", m.ReadLoad),
			fmt.Sprintf("%d-%d", m.MinUf, m.MaxUf),
		)
	}
	t.AddNote("Every catalog scenario with asymmetric channel failures is implementable only because GQS availability is unidirectional; classical quorum systems cannot express the ingress-loss or ring rows at all.")
	return t, nil
}
