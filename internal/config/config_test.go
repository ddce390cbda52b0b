package config

import (
	"strings"
	"testing"
)

func TestDefaultIsValid(t *testing.T) {
	if err := Default().Validate(); err != nil {
		t.Fatalf("Default() invalid: %v", err)
	}
}

func TestDefaultMatchesTableI(t *testing.T) {
	c := Default()
	if c.NumSMs != 2 {
		t.Errorf("NumSMs = %d, want 2", c.NumSMs)
	}
	if c.BlocksPerSM != 4 {
		t.Errorf("BlocksPerSM = %d, want 4", c.BlocksPerSM)
	}
	if c.WarpSlotsPerBlock != 8 {
		t.Errorf("WarpSlotsPerBlock = %d, want 8", c.WarpSlotsPerBlock)
	}
	if c.WarpSlotsPerSM() != 32 {
		t.Errorf("WarpSlotsPerSM = %d, want 32", c.WarpSlotsPerSM())
	}
	if c.L1DataBytes != 128<<10 {
		t.Errorf("L1DataBytes = %d, want 128KB", c.L1DataBytes)
	}
	if c.L1InstrBytes != 64<<10 || c.L0InstrBytes != 16<<10 {
		t.Errorf("instruction caches = %d/%d, want 64KB/16KB", c.L1InstrBytes, c.L0InstrBytes)
	}
	if c.L1MissLatency != 600 {
		t.Errorf("L1MissLatency = %d, want 600", c.L1MissLatency)
	}
	if c.SI.SwitchLatency != 6 {
		t.Errorf("SwitchLatency = %d, want 6", c.SI.SwitchLatency)
	}
	if c.SI.Enabled {
		t.Error("Default() must be the baseline (SI disabled)")
	}
}

func TestWithSI(t *testing.T) {
	c := Default().WithSI(true, TriggerAllStalled)
	if !c.SI.Enabled || !c.SI.Yield || c.SI.Trigger != TriggerAllStalled {
		t.Errorf("WithSI produced %+v", c.SI)
	}
	// Original default untouched (value semantics).
	if Default().SI.Enabled {
		t.Error("Default() mutated")
	}
}

func TestTriggerSatisfied(t *testing.T) {
	cases := []struct {
		trig          SelectTrigger
		stalled, live int
		want          bool
	}{
		{TriggerAnyStalled, 0, 8, false},
		{TriggerAnyStalled, 1, 8, true},
		{TriggerHalfStalled, 3, 8, false},
		{TriggerHalfStalled, 4, 8, true},
		{TriggerHalfStalled, 1, 2, true},
		{TriggerHalfStalled, 1, 3, false},
		{TriggerAllStalled, 7, 8, false},
		{TriggerAllStalled, 8, 8, true},
		{TriggerAllStalled, 1, 1, true},
		{TriggerAllStalled, 0, 0, false},
		{TriggerAnyStalled, 1, 0, false},
	}
	for _, c := range cases {
		if got := c.trig.Satisfied(c.stalled, c.live); got != c.want {
			t.Errorf("%v.Satisfied(%d, %d) = %v, want %v", c.trig, c.stalled, c.live, got, c.want)
		}
	}
}

func TestTriggerString(t *testing.T) {
	if TriggerAnyStalled.String() != "N>0" ||
		TriggerHalfStalled.String() != "N>=0.5" ||
		TriggerAllStalled.String() != "N=1" {
		t.Error("trigger String() does not match paper notation")
	}
}

func TestPolicyName(t *testing.T) {
	if got := Default().PolicyName(); got != "baseline" {
		t.Errorf("PolicyName = %q", got)
	}
	if got := Default().WithSI(false, TriggerAllStalled).PolicyName(); got != "SOS,N=1" {
		t.Errorf("PolicyName = %q", got)
	}
	if got := Default().WithSI(true, TriggerHalfStalled).PolicyName(); got != "Both,N>=0.5" {
		t.Errorf("PolicyName = %q", got)
	}
}

func TestEffectiveMaxSubwarps(t *testing.T) {
	c := Default()
	if got := c.EffectiveMaxSubwarps(); got != 1 {
		t.Errorf("baseline EffectiveMaxSubwarps = %d, want 1", got)
	}
	c = c.WithSI(false, TriggerHalfStalled)
	if got := c.EffectiveMaxSubwarps(); got != 32 {
		t.Errorf("unlimited = %d, want 32", got)
	}
	c.SI.MaxSubwarps = 4
	if got := c.EffectiveMaxSubwarps(); got != 4 {
		t.Errorf("capped = %d, want 4", got)
	}
	c.SI.MaxSubwarps = 64
	if got := c.EffectiveMaxSubwarps(); got != 32 {
		t.Errorf("over-cap = %d, want 32", got)
	}
}

func TestInstrsPerLine(t *testing.T) {
	c := Default()
	if got := c.InstrsPerLine(); got != 16 {
		t.Errorf("InstrsPerLine = %d, want 16 (128B line / 8B instr)", got)
	}
}

func TestValidateRejectsBadConfigs(t *testing.T) {
	mutations := []struct {
		name string
		mut  func(*Config)
	}{
		{"zero SMs", func(c *Config) { c.NumSMs = 0 }},
		{"zero blocks", func(c *Config) { c.BlocksPerSM = 0 }},
		{"zero warp slots", func(c *Config) { c.WarpSlotsPerBlock = 0 }},
		{"zero miss latency", func(c *Config) { c.L1MissLatency = 0 }},
		{"zero hit latency", func(c *Config) { c.L1DataHitLatency = 0 }},
		{"non-pow2 line", func(c *Config) { c.CacheLineBytes = 100 }},
		{"instr not dividing line", func(c *Config) { c.InstrBytes = 7 }},
		{"tiny L0", func(c *Config) { c.L0InstrBytes = 64 }},
		{"tiny L1I", func(c *Config) { c.L1InstrBytes = 64 }},
		{"tiny L1D", func(c *Config) { c.L1DataBytes = 64 }},
		{"too many scoreboards", func(c *Config) { c.ScoreboardsPerWarp = 17 }},
		{"zero math latency", func(c *Config) { c.MathLatency = 0 }},
		{"zero regfile", func(c *Config) { c.RegFilePerBlock = 0 }},
		{"negative switch latency", func(c *Config) {
			c.SI.Enabled = true
			c.SI.SwitchLatency = -1
		}},
		{"zero yield threshold", func(c *Config) {
			c.SI.Enabled = true
			c.SI.Yield = true
			c.SI.YieldThreshold = 0
		}},
		{"negative max subwarps", func(c *Config) {
			c.SI.Enabled = true
			c.SI.MaxSubwarps = -1
		}},
	}
	for _, m := range mutations {
		c := Default()
		m.mut(&c)
		if err := c.Validate(); err == nil {
			t.Errorf("%s: Validate accepted invalid config", m.name)
		}
	}
}

func TestOrderString(t *testing.T) {
	for _, o := range []SubwarpOrder{OrderTakenFirst, OrderFallthroughFirst, OrderLargestFirst, OrderRandom} {
		if o.String() == "" {
			t.Errorf("empty String for order %d", int(o))
		}
	}
}

// TestParseKnobNames pins the one definition of the CLI/API knob names
// sisim and the daemon share: every name maps to its constant, the
// empty string is the default, matching is case-insensitive, and an
// unknown name is refused with the valid ones listed.
func TestParseKnobNames(t *testing.T) {
	for name, want := range map[string]SelectTrigger{
		"": TriggerHalfStalled, "half": TriggerHalfStalled, "any": TriggerAnyStalled, "ALL": TriggerAllStalled,
	} {
		if got, err := ParseTrigger(name); err != nil || got != want {
			t.Errorf("ParseTrigger(%q) = %v, %v; want %v", name, got, err, want)
		}
	}
	for name, want := range map[string]SubwarpOrder{
		"": OrderTakenFirst, "taken": OrderTakenFirst, "fallthrough": OrderFallthroughFirst,
		"Largest": OrderLargestFirst, "random": OrderRandom,
	} {
		if got, err := ParseOrder(name); err != nil || got != want {
			t.Errorf("ParseOrder(%q) = %v, %v; want %v", name, got, err, want)
		}
	}
	for name, want := range map[string]SchedPolicy{"": SchedLRR, "lrr": SchedLRR, "GTO": SchedGTO, "wasp": SchedWaSP} {
		if got, err := ParseSchedPolicy(name); err != nil || got != want {
			t.Errorf("ParseSchedPolicy(%q) = %v, %v; want %v", name, got, err, want)
		}
	}
	for valid, parse := range map[string]func(string) error{
		"any, half, all":                      func(s string) error { _, err := ParseTrigger(s); return err },
		"taken, fallthrough, largest, random": func(s string) error { _, err := ParseOrder(s); return err },
		"lrr, gto, wasp":                      func(s string) error { _, err := ParseSchedPolicy(s); return err },
	} {
		err := parse("bogus")
		if err == nil || !strings.Contains(err.Error(), "bogus") || !strings.Contains(err.Error(), valid) {
			t.Errorf("parse(bogus) = %v; want an error naming it and listing %q", err, valid)
		}
	}
}
