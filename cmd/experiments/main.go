// Command experiments regenerates every experiment table of the
// reproduction, in the order of harness.Experiments (E01-E22; each table's
// header names the figure, example or theorem of the paper it maps to —
// see README.md for the overview).
//
// Usage:
//
//	experiments [-markdown] [-seed N]
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"

	"repro/internal/harness"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("experiments", flag.ContinueOnError)
	seed := fs.Int64("seed", 1, "network RNG seed")
	markdown := fs.Bool("markdown", false, "emit GitHub-flavoured markdown tables")
	if err := fs.Parse(args); err != nil {
		return err
	}
	cfg := harness.Config{Seed: *seed}
	render := (*harness.Table).Render
	if *markdown {
		render = (*harness.Table).Markdown
	}
	ctx, cancel := signal.NotifyContext(context.Background(), os.Interrupt)
	defer cancel()
	for _, e := range harness.Experiments {
		t, err := e.Run(ctx, cfg)
		if err != nil {
			return fmt.Errorf("%s: %w", e.ID, err)
		}
		render(t, os.Stdout)
	}
	return nil
}
