package attack

import (
	"strings"
	"testing"
	"testing/quick"

	"nvariant/internal/httpd"
	"nvariant/internal/reexpress"
	"nvariant/internal/word"
)

func TestFullWordForgeDetected(t *testing.T) {
	// The headline §3 case: forging root (0) as the same concrete word
	// in both variants is detected under the UID variation.
	out, err := Evaluate(reexpress.UIDVariation().Pair, 30, FullWord(0))
	if err != nil {
		t.Fatal(err)
	}
	if out != OutcomeDetected {
		t.Errorf("outcome = %v, want DETECTED", out)
	}
}

func TestFullWordForgeCorruptsIdentityPair(t *testing.T) {
	// Without diversity (identity/identity), the same forge silently
	// corrupts.
	pair := reexpress.Pair{R0: reexpress.Identity{}, R1: reexpress.Identity{}}
	out, err := Evaluate(pair, 30, FullWord(0))
	if err != nil {
		t.Fatal(err)
	}
	if out != OutcomeCorrupted {
		t.Errorf("outcome = %v, want CORRUPTED", out)
	}
}

func TestHighBitResidual(t *testing.T) {
	out, err := Evaluate(reexpress.UIDVariation().Pair, 30, HighBitSet())
	if err != nil {
		t.Fatal(err)
	}
	if out != OutcomeCorrupted {
		t.Errorf("high-bit outcome = %v, want CORRUPTED (the §3.2 residual)", out)
	}
	// The full-flip mask closes it.
	out, err = Evaluate(reexpress.UIDFullFlipVariation().Pair, 30, HighBitSet())
	if err != nil {
		t.Fatal(err)
	}
	if out != OutcomeDetected {
		t.Errorf("full-flip high-bit outcome = %v, want DETECTED", out)
	}
}

func TestByteWritesAllDetected(t *testing.T) {
	pair := reexpress.UIDVariation().Pair
	for i := 0; i < word.Size; i++ {
		for _, b := range []byte{0x00, 0x42, 0xFF} {
			out, err := Evaluate(pair, 30, SingleByte(i, b))
			if err != nil {
				t.Fatal(err)
			}
			if out == OutcomeCorrupted {
				t.Errorf("byte[%d]:=%#02x corrupted undetected", i, b)
			}
		}
	}
}

func TestQuickByteWritesNeverCorrupt(t *testing.T) {
	// Property: under the deployed mask, NO byte-granularity write
	// yields undetected corruption, for any victim and any value.
	pair := reexpress.UIDVariation().Pair
	f := func(victim uint32, pos uint8, b byte) bool {
		out, err := Evaluate(pair, word.Word(victim), SingleByte(int(pos%word.Size), b))
		return err == nil && out != OutcomeCorrupted
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestQuickFullWordWritesNeverCorrupt(t *testing.T) {
	pair := reexpress.UIDVariation().Pair
	f := func(victim, inject uint32) bool {
		out, err := Evaluate(pair, word.Word(victim), FullWord(word.Word(inject)))
		return err == nil && out != OutcomeCorrupted
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestBitFlipsAlwaysEvadeXORMasks(t *testing.T) {
	// The threat-model boundary: XOR reexpression commutes with XOR
	// faults, so every bit flip (on any mask) corrupts undetected.
	for _, pair := range []reexpress.Pair{
		reexpress.UIDVariation().Pair,
		reexpress.UIDFullFlipVariation().Pair,
	} {
		for i := 0; i < word.Bits; i++ {
			out, err := Evaluate(pair, 30, BitFlip(i))
			if err != nil {
				t.Fatal(err)
			}
			if out != OutcomeCorrupted {
				t.Errorf("bit[%d] flip outcome = %v, want CORRUPTED", i, out)
			}
		}
	}
}

func TestBitSetsDetectedExceptHighBit(t *testing.T) {
	pair := reexpress.UIDVariation().Pair
	for i := 0; i < word.Bits; i++ {
		out, err := Evaluate(pair, 30, BitSet(i))
		if err != nil {
			t.Fatal(err)
		}
		if i == 31 {
			if out != OutcomeCorrupted {
				t.Errorf("bit[31] set = %v, want CORRUPTED (residual)", out)
			}
			continue
		}
		if out == OutcomeCorrupted {
			t.Errorf("bit[%d] set corrupted undetected", i)
		}
	}
}

func TestLowBytesOverwrite(t *testing.T) {
	pair := reexpress.UIDVariation().Pair
	for k := 1; k <= 4; k++ {
		out, err := Evaluate(pair, 30, LowBytes(k, 0))
		if err != nil {
			t.Fatal(err)
		}
		if out == OutcomeCorrupted {
			t.Errorf("low-%d-bytes corrupted undetected", k)
		}
	}
}

func TestAddressPartitionInjection(t *testing.T) {
	// Evaluate also covers the address case: injecting a full address
	// into a partitioned pair faults one variant (detected).
	pair := reexpress.AddressPartitioning().Pair
	out, err := Evaluate(pair, 0x00001000, FullWord(0x00002000))
	if err != nil {
		t.Fatal(err)
	}
	if out != OutcomeDetected {
		t.Errorf("address injection = %v, want DETECTED", out)
	}
}

func TestHarmlessOutcome(t *testing.T) {
	pair := reexpress.UIDVariation().Pair
	// A harmless write must be a no-op in BOTH representations. The
	// UID mask preserves the high bit, so setting the high bit of a
	// victim whose high bit is already 1 changes neither variant.
	out, err := Evaluate(pair, 0x80000001, HighBitSet())
	if err != nil {
		t.Fatal(err)
	}
	if out != OutcomeHarmless {
		t.Errorf("no-op write = %v, want harmless", out)
	}
	// The same write against a low victim is the §3.2 residual
	// corruption, not harmless.
	out, err = Evaluate(pair, 30, HighBitSet())
	if err != nil {
		t.Fatal(err)
	}
	if out != OutcomeCorrupted {
		t.Errorf("residual write = %v, want corrupted", out)
	}
}

func TestStandardOverwritesShape(t *testing.T) {
	ows := StandardOverwrites()
	var words, bytes, bits, flips int
	for _, ow := range ows {
		switch {
		case ow.Granularity == GranWord:
			words++
		case ow.Granularity == GranByte:
			bytes++
		case ow.Style == StyleFlip:
			flips++
		default:
			bits++
		}
	}
	if words < 3 || bytes < 8 || bits < 31 || flips != 32 {
		t.Errorf("campaign set: words=%d bytes=%d bits=%d flips=%d", words, bytes, bits, flips)
	}
}

func TestCampaignRows(t *testing.T) {
	// Every standard overwrite evaluates against the UID variation.
	for _, ow := range StandardOverwrites() {
		if _, err := Evaluate(reexpress.UIDVariation().Pair, 30, ow); err != nil {
			t.Errorf("evaluate %q: %v", ow.Name, err)
		}
	}
}

func TestPayloadShapes(t *testing.T) {
	p := ForgeUIDPayload(0)
	if len(p) != httpd.ReqBufSize+4 {
		t.Errorf("forge payload length = %d, want %d", len(p), httpd.ReqBufSize+4)
	}
	if strings.ContainsRune(string(p), '\n') {
		t.Error("payload contains newline; would parse as a request")
	}
	p1 := ForgeLowBytesPayload(0, 1)
	if len(p1) != httpd.ReqBufSize+1 {
		t.Errorf("1-byte payload length = %d", len(p1))
	}
	p5 := ForgeLowBytesPayload(0, 9)
	if len(p5) != httpd.ReqBufSize+4 {
		t.Errorf("clamped payload length = %d", len(p5))
	}
	// The tail must be the little-endian UID bytes.
	forged := ForgeUIDPayload(0xAABBCCDD)
	tail := forged[httpd.ReqBufSize:]
	if tail[0] != 0xDD || tail[3] != 0xAA {
		t.Errorf("tail = %x, want little-endian DDCCBBAA", tail)
	}
}

func TestStrings(t *testing.T) {
	if GranWord.String() != "word" || GranByte.String() != "byte" || GranBit.String() != "bit" {
		t.Error("granularity names")
	}
	if Granularity(9).String() != "unknown" {
		t.Error("unknown granularity")
	}
	if StyleWrite.String() != "write" || StyleFlip.String() != "flip" || Style(9).String() != "unknown" {
		t.Error("style names")
	}
	for _, o := range []Outcome{OutcomeDetected, OutcomeCorrupted, OutcomeHarmless, Outcome(9)} {
		if o.String() == "" {
			t.Error("outcome name empty")
		}
	}
}
