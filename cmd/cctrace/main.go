// Command cctrace renders a Figure-3-style frame animation of a CC run:
// each sampled configuration shows every professor's status, edge
// pointer, token flags and the committees currently meeting, like the
// paper's example computation.
//
//	cctrace -topo fig3 -alg cc1 -frames 12
//	cctrace -topo ring:6 -alg cc2 -every 5
package main

import (
	"flag"
	"fmt"
	"math/rand"
	"os"
	"strings"

	"repro/internal/core"
	"repro/internal/hypergraph"
	"repro/internal/sim"
)

func main() {
	var (
		algName  = flag.String("alg", "cc1", "cc1 | cc2 | cc3")
		topo     = flag.String("topo", "fig3", "topology spec")
		frames   = flag.Int("frames", 10, "frames to print")
		every    = flag.Int("every", 0, "print every k-th step (0 = on meeting events)")
		steps    = flag.Int("steps", 20000, "max steps")
		seed     = flag.Int64("seed", 1, "random seed")
		idleMask = flag.String("idle", "", "comma-separated professor ids (paper ids) that never request (CC1 only)")
	)
	flag.Parse()

	h, err := hypergraph.Parse(*topo, rand.New(rand.NewSource(*seed)))
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	variant, ok := map[string]core.Variant{"cc1": core.CC1, "cc2": core.CC2, "cc3": core.CC3}[*algName]
	if !ok {
		fmt.Fprintf(os.Stderr, "unknown algorithm %q\n", *algName)
		os.Exit(2)
	}
	alg := core.New(variant, h, nil)
	var env core.Env = core.NewAlwaysClient(h.N(), 2)
	if *idleMask != "" {
		if variant != core.CC1 {
			fmt.Fprintln(os.Stderr, "-idle only applies to cc1 (CC2/CC3 assume always-requesting professors)")
			os.Exit(2)
		}
		masked := &idleEnv{Env: env, allowed: make([]bool, h.N())}
		for p := range masked.allowed {
			masked.allowed[p] = true
		}
		for _, f := range strings.Split(*idleMask, ",") {
			var id int
			if _, err := fmt.Sscanf(strings.TrimSpace(f), "%d", &id); err != nil {
				fmt.Fprintf(os.Stderr, "bad -idle entry %q\n", f)
				os.Exit(2)
			}
			if v := h.VertexByID(id); v >= 0 {
				masked.allowed[v] = false
			}
		}
		env = masked
	}
	r := core.NewRunner(alg, &sim.WeaklyFair{MaxAge: 6}, env, *seed, false)

	printed := 0
	frame := func(step int, label string) {
		printed++
		fmt.Printf("--- frame %d (step %d%s) ---\n", printed, step, label)
		cfg := r.Config()
		for p := 0; p < h.N(); p++ {
			ptr := "⊥"
			if cfg[p].P != core.NoEdge {
				members := make([]int, len(h.Edge(cfg[p].P)))
				for j, v := range h.Edge(cfg[p].P) {
					members[j] = h.ID(v)
				}
				ptr = fmt.Sprint(members)
			}
			marks := ""
			if cfg[p].T {
				marks += " [T]"
			}
			if alg.Token(cfg, p) {
				marks += " (token)"
			}
			if cfg[p].L {
				marks += " [L]"
			}
			fmt.Printf("  prof %-2d  %-8s P=%-12s%s\n", h.ID(p), cfg[p].S, ptr, marks)
		}
		meets := alg.Meetings(cfg)
		if len(meets) == 0 {
			fmt.Println("  meetings: none")
		} else {
			parts := make([]string, len(meets))
			for i, e := range meets {
				ids := make([]int, len(h.Edge(e)))
				for j, v := range h.Edge(e) {
					ids[j] = h.ID(v)
				}
				parts[i] = fmt.Sprint(ids)
			}
			fmt.Printf("  meetings: %s\n", strings.Join(parts, " "))
		}
		fmt.Println()
	}

	frame(0, ", initial")
	if *every > 0 {
		for printed < *frames {
			if r.Run(*every) == 0 {
				break
			}
			frame(r.Engine.Steps(), "")
		}
		return
	}
	r.OnConvene(func(step, e int) {
		if printed < *frames {
			frame(step, ", convene")
		}
	})
	r.OnTerminate(func(step, e int) {
		if printed < *frames {
			frame(step, ", terminate")
		}
	})
	for printed < *frames && r.Engine.Steps() < *steps {
		if r.Run(1) == 0 {
			break
		}
	}
}

type idleEnv struct {
	Env     core.Env
	allowed []bool
}

func (m *idleEnv) RequestIn(p int) bool           { return m.allowed[p] && m.Env.RequestIn(p) }
func (m *idleEnv) RequestOut(p int) bool          { return m.Env.RequestOut(p) }
func (m *idleEnv) Update(cfg []core.State, s int) { m.Env.Update(cfg, s) }
