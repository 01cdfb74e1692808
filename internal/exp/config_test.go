package exp

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"collio/internal/fcoll"
	"collio/internal/platform"
	"collio/internal/workload/ior"
	"collio/internal/workload/tileio"
)

// goldenConfig is the reference Config of the pinned-digest tests:
// fully explicit, so any encoding drift shows up as a digest change.
func goldenConfig() Config {
	return Config{
		Platform:    platform.Crill().Deterministic(),
		Workload:    ior.Default(),
		NProcs:      64,
		Algorithm:   fcoll.WriteOverlap,
		Primitive:   fcoll.TwoSided,
		BufferSize:  32 << 20,
		Aggregators: 0,
	}
}

// Golden digests. These pin the canonical encoding itself — platform
// field list and order, workload Params, key names, number formatting,
// the version line. If a test here fails, the encoding drifted: either
// revert the drift, or (for a deliberate change) bump
// configEncodingVersion AND update these constants in the same change,
// because every on-disk cache entry keyed under the old encoding is
// invalidated by design.
const (
	goldenDigestCrillIOR    = "16d2a45cea9e03c989fd776dc58f4e5e2c88373ac5496a357458010bb6bb46a9"
	goldenDigestIbexTile1M  = "4a6b346bcee890b443fb47e1f8643945fe23b76a29a94083be6dea911b9d92ba"
	goldenDigestBundledIbex = "607df495fb3375ad7af5c820bae8fcf649eca6405b129f455c902aa53a736330"
)

func TestGoldenDigests(t *testing.T) {
	cases := []struct {
		name string
		cfg  Config
		want string
	}{
		{"crill-ior", goldenConfig(), goldenDigestCrillIOR},
		{"ibex-tile1m", func() Config {
			c := goldenConfig()
			c.Platform = platform.Ibex().Deterministic()
			c.Workload = tileio.Tile1M()
			c.NProcs = 128
			c.Algorithm = fcoll.WriteComm2Overlap
			c.BufferSize = 16 << 20
			c.Aggregators = 4
			return c
		}(), goldenDigestIbexTile1M},
		{"bundled-ibex", func() Config {
			c := goldenConfig()
			c.Platform = platform.Ibex().Deterministic().ScaledTo(4096)
			c.NProcs = 4096
			c.Bundled = true
			return c
		}(), goldenDigestBundledIbex},
	}
	for _, tc := range cases {
		d, err := tc.cfg.Digest()
		if err != nil {
			t.Fatalf("%s: Digest: %v", tc.name, err)
		}
		if d.String() != tc.want {
			enc, _ := tc.cfg.CanonicalBytes()
			t.Errorf("%s: canonical encoding drifted:\n  got digest %s\n want digest %s\n"+
				"If the change is deliberate, bump configEncodingVersion and repin.\nEncoding:\n%s",
				tc.name, d, tc.want, enc)
		}
	}
}

func TestDigestRoundTripsHex(t *testing.T) {
	d, err := goldenConfig().Digest()
	if err != nil {
		t.Fatal(err)
	}
	back, err := ParseDigest(d.String())
	if err != nil {
		t.Fatal(err)
	}
	if back != d {
		t.Fatalf("ParseDigest(%s) = %s", d, back)
	}
	if _, err := ParseDigest("zz"); err == nil {
		t.Fatal("ParseDigest accepted junk")
	}
	if _, err := ParseDigest("abcd"); err == nil {
		t.Fatal("ParseDigest accepted a short digest")
	}
}

// TestConfigEncodingCoversPlatform is the field-census drift guard for
// platform.Platform: CanonicalBytes must emit exactly one
// "platform.<field>=" line per struct field. When platform.Platform
// gains (or loses) a field this fails, pointing at the encoding list in
// CanonicalBytes — add the line there and bump configEncodingVersion.
func TestConfigEncodingCoversPlatform(t *testing.T) {
	enc, err := goldenConfig().CanonicalBytes()
	if err != nil {
		t.Fatal(err)
	}
	got := 0
	for _, line := range strings.Split(string(enc), "\n") {
		if strings.HasPrefix(line, "platform.") {
			got++
		}
	}
	want := reflect.TypeOf(platform.Platform{}).NumField()
	if got != want {
		t.Fatalf("canonical encoding has %d platform.* lines but platform.Platform has %d fields;\n"+
			"update the platform block in Config.CanonicalBytes and bump configEncodingVersion", got, want)
	}
}

// TestConfigEncodingCoversConfig is the same census for Config itself:
// every field must feed the encoding (Platform and Workload through
// their own blocks, the scalars through named lines).
func TestConfigEncodingCoversConfig(t *testing.T) {
	want := map[string]string{
		"Platform":     "platform.",
		"Workload":     "workload.",
		"NProcs":       "nprocs=",
		"Algorithm":    "algorithm=",
		"Primitive":    "primitive=",
		"BufferSize":   "buffersize=",
		"Aggregators":  "aggregators=",
		"Hierarchical": "hierarchical=",
		"Seed":         "seed=",
		"Read":         "read=",
		"Bundled":      "bundled=",
	}
	typ := reflect.TypeOf(Config{})
	for i := 0; i < typ.NumField(); i++ {
		if _, ok := want[typ.Field(i).Name]; !ok {
			t.Errorf("Config gained field %s with no canonical-encoding entry;\n"+
				"encode it in CanonicalBytes, bump configEncodingVersion, and extend this census",
				typ.Field(i).Name)
		}
	}
	if typ.NumField() != len(want) {
		t.Errorf("Config has %d fields, census knows %d", typ.NumField(), len(want))
	}
	enc, err := goldenConfig().CanonicalBytes()
	if err != nil {
		t.Fatal(err)
	}
	for f, prefix := range want {
		if !bytes.Contains(enc, []byte("\n"+prefix)) {
			t.Errorf("no %q line in the canonical encoding (field %s)", prefix, f)
		}
	}
	if !bytes.HasPrefix(enc, []byte("collio.Config/2\n")) {
		t.Errorf("encoding does not start with the version line: %q", enc[:20])
	}
}

// TestDigestSensitivity: every digest-relevant field change must change
// the digest; the one deliberate normalization (BufferSize 0 == 32 MiB)
// must not.
func TestDigestSensitivity(t *testing.T) {
	base, err := goldenConfig().Digest()
	if err != nil {
		t.Fatal(err)
	}
	mutations := map[string]func(*Config){
		"Algorithm":          func(c *Config) { c.Algorithm = fcoll.NoOverlap },
		"Primitive":          func(c *Config) { c.Primitive = fcoll.OneSidedFence },
		"BufferSize":         func(c *Config) { c.BufferSize = 16 << 20 },
		"Aggregators":        func(c *Config) { c.Aggregators = 2 },
		"Hierarchical":       func(c *Config) { c.Hierarchical = true },
		"NProcs":             func(c *Config) { c.NProcs = 65 },
		"Seed":               func(c *Config) { c.Seed = 7 },
		"Read":               func(c *Config) { c.Read = true },
		"Bundled":            func(c *Config) { c.Bundled = true },
		"Workload":           func(c *Config) { c.Workload = tileio.Tile1M() },
		"workload-param":     func(c *Config) { w := ior.Default(); w.BlockSize++; c.Workload = w },
		"platform-identity":  func(c *Config) { c.Platform.Name = "other" },
		"platform-shape":     func(c *Config) { c.Platform.Nodes++ },
		"platform-bandwidth": func(c *Config) { c.Platform.InterBandwidth *= 2 },
		"platform-netmodel":  func(c *Config) { c.Platform.NetModel++ },
		"platform-combine":   func(c *Config) { c.Platform.CombinePerOp++ },
	}
	for name, mutate := range mutations {
		c := goldenConfig()
		mutate(&c)
		d, err := c.Digest()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if d == base {
			t.Errorf("mutating %s did not change the digest", name)
		}
	}

	zero := goldenConfig()
	zero.BufferSize = 0
	d, err := zero.Digest()
	if err != nil {
		t.Fatal(err)
	}
	if d != base {
		t.Errorf("BufferSize 0 and 32 MiB should share a digest (the ompio-default normalization)")
	}
}

// TestSpecConfigRoundTrip: Spec → Config → Spec preserves every
// digest-relevant field, and Config rejects non-Canonical generators.
func TestSpecConfigRoundTrip(t *testing.T) {
	spec := Spec{
		Platform:     platform.Ibex(),
		NProcs:       96,
		Gen:          tileio.Tile256(),
		Algorithm:    fcoll.CommOverlap,
		Primitive:    fcoll.OneSidedLock,
		BufferSize:   8 << 20,
		Aggregators:  3,
		Hierarchical: true,
		Seed:         5,
		Read:         false,
		Bundle:       true,
	}
	cfg, err := spec.Config()
	if err != nil {
		t.Fatal(err)
	}
	back := cfg.Spec()
	if !reflect.DeepEqual(back, spec) {
		t.Errorf("round trip drifted:\n got %+v\nwant %+v", back, spec)
	}

	if _, err := (Spec{Gen: anonGen{}}).Config(); err == nil {
		t.Fatal("Config accepted a non-Canonical generator")
	}
}

// anonGen is a Generator without Params — not digestable.
type anonGen struct{}

func (anonGen) Name() string                { return "anon" }
func (anonGen) TotalBytes(nprocs int) int64 { return 0 }
func (anonGen) Views(nprocs int, data bool, seed int64) ([]*fcoll.JobView, error) {
	return nil, nil
}

// TestExecuteConfigMatchesExecute: the Config path is the same
// simulation as the Spec path.
func TestExecuteConfigMatchesExecute(t *testing.T) {
	spec := Spec{
		Platform:  platform.Crill().Deterministic(),
		NProcs:    8,
		Gen:       ior.Default(),
		Algorithm: fcoll.WriteOverlap,
	}
	want, err := Execute(spec)
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := spec.Config()
	if err != nil {
		t.Fatal(err)
	}
	got, err := ExecuteConfig(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("ExecuteConfig = %+v, Execute = %+v", got, want)
	}
}

// FuzzParseDigest: ParseDigest either returns an error or a digest
// whose String is the input up to hex case; it never panics. The seed
// corpus under testdata/fuzz holds a pinned digest, its upper-case
// form, a short, a long and a non-hex input.
func FuzzParseDigest(f *testing.F) {
	f.Fuzz(func(t *testing.T, s string) {
		d, err := ParseDigest(s)
		if err != nil {
			return
		}
		if got := d.String(); got != strings.ToLower(s) {
			t.Errorf("ParseDigest(%q).String() = %q", s, got)
		}
	})
}
