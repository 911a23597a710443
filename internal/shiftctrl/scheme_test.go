package shiftctrl

import "testing"

func TestParseScheme(t *testing.T) {
	for in, want := range map[string]Scheme{
		"baseline":        Baseline,
		"none":            Baseline,
		"sts":             STSOnly,
		"sed":             SED,
		"secded":          SECDED,
		"pecc":            SECDED,
		"pecco":           PECCO,
		"pecc-o":          PECCO,
		"worst":           PECCSWorst,
		"pecc-s-worst":    PECCSWorst,
		"adaptive":        PECCSAdaptive,
		"pecc-s-adaptive": PECCSAdaptive,
	} {
		if got, err := ParseScheme(in); err != nil || got != want {
			t.Errorf("ParseScheme(%q) = %v, %v; want %v", in, got, err, want)
		}
	}
	// Names outside the table, the String() forms and other cases
	// included, are rejected.
	for _, in := range []string{"magic", "", "Adaptive", " sed", "sts-only", "secded-pecc-o"} {
		if got, err := ParseScheme(in); err == nil {
			t.Errorf("ParseScheme(%q) = %v, want an error", in, got)
		}
	}
}
