package workload

import (
	"fmt"
	"sort"
	"strings"

	"subwarpsim/internal/sm"
)

// Generator is one registered synthetic workload family: a named,
// parameterless kernel constructor. Families differ in control-flow
// shape (divergence-free compute, data-dependent traversal,
// mixed-latency graphics), which is exactly the axis the scheduler-
// policy and SI experiments sweep. Build constructs a new kernel per
// call; a run never changes a kernel, so callers keep and share it.
type Generator struct {
	// Name is the stable CLI/API identifier ("gemm", "bfs", "texture").
	Name string
	// Title is a one-line human description for usage text.
	Title string
	// Build constructs a kernel with the family's default parameters.
	Build func() (*sm.Kernel, error)
}

var generators = map[string]Generator{}

// register adds a generator family at package init.
func register(g Generator) {
	if g.Name == "" || g.Build == nil {
		panic("workload: generator needs a name and a builder")
	}
	if _, dup := generators[g.Name]; dup {
		panic("workload: duplicate generator " + g.Name)
	}
	generators[g.Name] = g
}

// Generators returns all registered families sorted by name.
func Generators() []Generator {
	out := make([]Generator, 0, len(generators))
	for _, g := range generators {
		out = append(out, g)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// GeneratorNames returns the sorted registered family names, for
// dynamically enumerated CLI usage text.
func GeneratorNames() []string {
	names := make([]string, 0, len(generators))
	for name := range generators {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// GeneratorByName looks up a registered family. The error enumerates
// the registered names so CLI callers can surface them directly.
func GeneratorByName(name string) (Generator, error) {
	g, ok := generators[name]
	if !ok {
		return Generator{}, fmt.Errorf("unknown workload %q (registered: %s)",
			name, strings.Join(GeneratorNames(), ", "))
	}
	return g, nil
}

// BuildByName constructs a kernel for the named family.
func BuildByName(name string) (*sm.Kernel, error) {
	g, err := GeneratorByName(name)
	if err != nil {
		return nil, err
	}
	return g.Build()
}
