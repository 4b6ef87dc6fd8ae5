package machine_test

import (
	"errors"
	"strings"
	"testing"

	"sptc"
	"sptc/internal/machine"
)

// TestValidateDefault pins the paper-faithful configuration as valid.
func TestValidateDefault(t *testing.T) {
	cfg := machine.DefaultConfig()
	if err := cfg.Validate(); err != nil {
		t.Fatalf("DefaultConfig invalid: %v", err)
	}
}

// TestValidateRejects pins the typed rejection of each geometry error:
// the field name lands in ConfigError.Field so CLIs and the service can
// report exactly which knob is wrong.
func TestValidateRejects(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*machine.Config)
		field  string
	}{
		{"zero-line", func(c *machine.Config) { c.LineWords = 0 }, "LineWords"},
		{"npot-line", func(c *machine.Config) { c.LineWords = 3 }, "LineWords"},
		{"negative-line", func(c *machine.Config) { c.LineWords = -8 }, "LineWords"},
		{"zero-assoc", func(c *machine.Config) { c.L1Assoc = 0 }, "L1Assoc"},
		{"negative-assoc", func(c *machine.Config) { c.L2Assoc = -1 }, "L2Assoc"},
		{"zero-words", func(c *machine.Config) { c.L3Words = 0 }, "L3Words"},
		{"sub-set-level", func(c *machine.Config) { c.L1Words = c.LineWords*c.L1Assoc - 1 }, "L1Words"},
		{"zero-predictor", func(c *machine.Config) { c.PredictorEntries = 0 }, "PredictorEntries"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := machine.DefaultConfig()
			tc.mutate(&cfg)
			err := cfg.Validate()
			if err == nil {
				t.Fatal("invalid config accepted")
			}
			var ce *machine.ConfigError
			if !errors.As(err, &ce) {
				t.Fatalf("error %T is not a *ConfigError", err)
			}
			if ce.Field != tc.field {
				t.Errorf("Field = %q, want %q", ce.Field, tc.field)
			}
			if !strings.Contains(err.Error(), tc.field) {
				t.Errorf("message %q does not name the field", err)
			}
		})
	}
}

// TestRunRejectsInvalidConfig pins satellite contract of Config.Validate:
// Run refuses a broken cache geometry before simulating, and the error
// unwraps to the typed *machine.ConfigError the CLIs and the service
// report from.
func TestRunRejectsInvalidConfig(t *testing.T) {
	res, err := sptc.Compile("spec.spl", specFriendly, sptc.LevelBest)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	cfg := machine.DefaultConfig()
	cfg.LineWords = 7 // not a power of two
	_, err = machine.Run(res.Prog, cfg, sptc.SimulationOptions(res))
	if err == nil {
		t.Fatal("invalid config accepted by Run")
	}
	var ce *machine.ConfigError
	if !errors.As(err, &ce) {
		t.Fatalf("Run error %T (%v) does not unwrap to *machine.ConfigError", err, err)
	}
	if ce.Field != "LineWords" {
		t.Errorf("Field = %q, want LineWords", ce.Field)
	}
}
