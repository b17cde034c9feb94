package designs

import (
	"testing"

	"rtltimer/internal/bog"
	"rtltimer/internal/elab"
	"rtltimer/internal/verilog"
)

func TestAllSpecsNamed(t *testing.T) {
	specs := All()
	if len(specs) != 21 {
		t.Fatalf("spec count = %d, want 21 (paper Table 3)", len(specs))
	}
	families := map[string]int{}
	names := map[string]bool{}
	for _, s := range specs {
		if names[s.Name] {
			t.Errorf("duplicate design name %s", s.Name)
		}
		names[s.Name] = true
		families[s.Family]++
	}
	// Paper Table 3: 6 ITC'99, 4 OpenCores... our suite assigns Marax and
	// FPU to OpenCores making 5; VexRiscv 8, Chipyard 3.
	if families["ITC99"] != 6 || families["Chipyard"] != 3 || families["VexRiscv"] != 8 {
		t.Errorf("family mix: %v", families)
	}
}

func TestEveryDesignElaboratesAndBlasts(t *testing.T) {
	for _, spec := range All() {
		spec := spec
		t.Run(spec.Name, func(t *testing.T) {
			src := Generate(spec)
			parsed, err := verilog.Parse(src)
			if err != nil {
				t.Fatalf("parse: %v\n%s", err, src)
			}
			d, err := elab.Elaborate(parsed)
			if err != nil {
				t.Fatalf("elaborate: %v", err)
			}
			if len(d.Regs) == 0 {
				t.Fatal("no registers")
			}
			g, err := bog.Build(d, bog.SOG)
			if err != nil {
				t.Fatalf("bitblast: %v", err)
			}
			if err := g.Check(); err != nil {
				t.Fatal(err)
			}
			if len(g.Endpoints) < 16 {
				t.Errorf("only %d endpoints", len(g.Endpoints))
			}
		})
	}
}

// TestEverySpecParsesAtEveryScale: every benchmark spec, regenerated at
// each scale 1-4, must parse and elaborate — the cold-build benchmark
// traffic draws revisions across exactly that range.
func TestEverySpecParsesAtEveryScale(t *testing.T) {
	for _, spec := range All() {
		for scale := 1; scale <= 4; scale++ {
			spec.Scale = scale
			parsed, err := verilog.Parse(Generate(spec))
			if err != nil {
				t.Fatalf("%s scale %d: parse: %v", spec.Name, scale, err)
			}
			if _, err := elab.Elaborate(parsed); err != nil {
				t.Fatalf("%s scale %d: elaborate: %v", spec.Name, scale, err)
			}
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	spec, _ := ByName("syscaes")
	if Generate(spec) != Generate(spec) {
		t.Error("generation is not deterministic")
	}
}

func TestScaleGrowsDesign(t *testing.T) {
	spec, _ := ByName("Vex_1")
	small := Generate(spec)
	spec.Scale = 4
	large := Generate(spec)
	if len(large) <= len(small) {
		t.Errorf("scale knob did not grow the design: %d vs %d bytes", len(small), len(large))
	}
}

func TestByName(t *testing.T) {
	if _, ok := ByName("b18_1"); !ok {
		t.Error("b18_1 missing")
	}
	if _, ok := ByName("nonexistent"); ok {
		t.Error("found nonexistent design")
	}
}

func TestDesignsAreStructurallyDiverse(t *testing.T) {
	// Crypto and CPU designs should produce different node-count profiles.
	sizes := map[string]int{}
	for _, name := range []string{"syscdes", "Rocket1", "conmax", "FPU"} {
		spec, _ := ByName(name)
		parsed, err := verilog.Parse(Generate(spec))
		if err != nil {
			t.Fatal(err)
		}
		d, err := elab.Elaborate(parsed)
		if err != nil {
			t.Fatal(err)
		}
		g, err := bog.Build(d, bog.SOG)
		if err != nil {
			t.Fatal(err)
		}
		sizes[name] = g.CombNodes()
	}
	seen := map[int]bool{}
	for name, n := range sizes {
		if n < 50 {
			t.Errorf("%s: only %d comb nodes", name, n)
		}
		if seen[n] {
			t.Errorf("suspiciously identical sizes: %v", sizes)
		}
		seen[n] = true
	}
}

func TestGeneratedDesignsRoundTripThroughPrinter(t *testing.T) {
	// Property over the whole suite: parse -> print -> parse -> elaborate
	// must preserve the design (same register bit count and node profile).
	for _, spec := range All() {
		spec := spec
		t.Run(spec.Name, func(t *testing.T) {
			p1, err := verilog.Parse(Generate(spec))
			if err != nil {
				t.Fatal(err)
			}
			printed := p1.WriteSource()
			p2, err := verilog.Parse(printed)
			if err != nil {
				t.Fatalf("printed source does not parse: %v", err)
			}
			d1, err := elab.Elaborate(p1)
			if err != nil {
				t.Fatal(err)
			}
			d2, err := elab.Elaborate(p2)
			if err != nil {
				t.Fatalf("printed source does not elaborate: %v", err)
			}
			s1, s2 := d1.Stats(), d2.Stats()
			if s1.RegBits != s2.RegBits || s1.Signals != s2.Signals {
				t.Errorf("round trip changed the design: %+v vs %+v", s1, s2)
			}
		})
	}
}
