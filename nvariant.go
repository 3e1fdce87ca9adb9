// Package nvariant is the public API of the reproduction of "Security
// through Redundant Data Diversity" (Nguyen-Tuong, Evans, Knight, Cox,
// Davidson — DSN 2008).
//
// An N-variant system runs N variants of a program whose *data
// representations* differ under per-variant reexpression functions
// R_i, behind a monitor that replicates inputs to all variants,
// synchronizes them at system-call boundaries, and raises an alarm on
// any divergence. Because the inverse reexpression functions are
// disjoint (∀x: R⁻¹₀(x) ≠ R⁻¹₁(x)), an attacker — who can only send
// the same input bytes to every variant — cannot corrupt the
// diversified data in all variants consistently: the corruption is
// detected at its first use, without any secrets.
//
// Quick start — a DiversitySpec describes the whole deployment: N ≥ 2
// variants, each with a stack of typed variation layers, validated for
// the inverse and N-wide pairwise-disjointness properties at
// construction:
//
//	world, _ := nvariant.NewWorld()
//	spec, _ := nvariant.SpecFromVariation(nvariant.UIDVariation())
//	nvariant.SetupUnsharedPasswd(world, spec.UIDFuncs())
//	res, _ := nvariant.Run(world, nvariant.NewNetwork(0),
//	    []nvariant.Program{variant0, variant1},
//	    nvariant.WithSpec(spec),
//	    nvariant.WithUnsharedFiles("/etc/passwd", "/etc/group"))
//	if res.Detected() {
//	    fmt.Println("attack detected:", res.Alarm)
//	}
//
// The package re-exports the building blocks: the reexpression-
// function framework (Table 1), the monitor kernel with its detection
// system calls (Table 2), the simulated OS/network substrates, the
// case-study web server with its planted non-control-data
// vulnerability (§4), the automated source-to-source UID transformer
// for the bundled mini-C language (§3.3), and the experiment drivers
// that regenerate the paper's tables and figures.
package nvariant

import (
	"time"

	"nvariant/internal/fleet"
	"nvariant/internal/harness"
	"nvariant/internal/httpd"
	"nvariant/internal/minic"
	"nvariant/internal/nvkernel"
	"nvariant/internal/reexpress"
	"nvariant/internal/simnet"
	"nvariant/internal/sys"
	"nvariant/internal/transform"
	"nvariant/internal/vos"
	"nvariant/internal/word"
)

// Core value types.
type (
	// Word is the 32-bit machine word diversified data is stored in.
	Word = word.Word
	// UID is a user identifier (also used for GIDs, as in the paper).
	UID = vos.UID

	// ReexpressionFunc is a data reexpression function R with inverse.
	ReexpressionFunc = reexpress.Func

	// DiversitySpec describes a diversified deployment: N ≥ 2 variants,
	// each with an ordered stack of typed variation layers, validated
	// for the inverse and N-wide pairwise-disjointness properties.
	DiversitySpec = reexpress.Spec
	// DiversityLayerKind classifies a variation layer.
	DiversityLayerKind = reexpress.LayerKind

	// Program is the code run (with per-variant data) by each variant.
	Program = sys.Program
	// Context is the per-variant syscall environment.
	Context = sys.Context

	// World is the simulated machine (filesystem, users).
	World = vos.World
	// Network is the simulated network clients dial.
	Network = simnet.Network

	// Option configures the monitor kernel.
	Option = nvkernel.Option
	// Result is the outcome of an N-variant run.
	Result = nvkernel.Result
)

// DiversitySpec construction.
var (
	// SpecFromVariation builds a validated two-variant spec from a
	// Table 1 row; the instruction-tagging row has no layer and errors.
	SpecFromVariation = reexpress.FromVariation
	// ParseStack parses a comma-separated stack description
	// ("uid,addr,files") into layer kinds; an empty stack, an unknown
	// token or a kind given twice is an error.
	ParseStack = reexpress.ParseStack
)

// Cred is a simulated process credential set.
type Cred = vos.Cred

// RootCred returns superuser credentials (for world setup and
// inspection from the host side).
func RootCred() Cred { return vos.CredFor(vos.Root, 0) }

// NewWorld builds the standard simulated machine: base users, passwd
// and group files, a document root, and the root-only secret the
// attack experiments target.
func NewWorld() (*World, error) { return vos.NewWorld() }

// NewNetwork builds a simulated network with the given one-way wire
// latency.
func NewNetwork(latency time.Duration) *Network { return simnet.New(latency) }

// Run executes the given variant programs as one N-variant process
// group under the monitor kernel.
func Run(world *World, net *Network, progs []Program, opts ...Option) (*Result, error) {
	return nvkernel.Run(world, net, progs, opts...)
}

// Kernel options, re-exported.
var (
	// WithSpec configures a run from a DiversitySpec, materializing
	// every layer of its variation stack.
	WithSpec = nvkernel.WithSpec
	// WithAddressPartition places variants in disjoint address spaces.
	WithAddressPartition = nvkernel.WithAddressPartition
	// WithUnsharedFiles marks per-variant diversified files (§3.4).
	WithUnsharedFiles = nvkernel.WithUnsharedFiles
)

// SetupUnsharedPasswd writes the diversified /etc/passwd-<i> and
// /etc/group-<i> files for each variant function (§3.4).
func SetupUnsharedPasswd(world *World, funcs []ReexpressionFunc) error {
	return nvkernel.SetupUnsharedPasswd(world, funcs)
}

// UIDVariation is the paper's contribution, Table 1 row 4:
// R₁(u) = u ⊕ 0x7FFFFFFF.
var UIDVariation = reexpress.UIDVariation

// ProgramFunc adapts a function to the Program interface.
type ProgramFunc = sys.ProgramFunc

// --- Case-study web server (§4) --------------------------------------

// HTTPServerOptions configures the case-study server.
type HTTPServerOptions = httpd.Options

// Configuration selects one of the paper's Table 3 deployments.
type Configuration = harness.Configuration

// The unmodified baseline and the UID-variation deployment of Table 3.
const (
	Config1Unmodified   = harness.Config1Unmodified
	Config4UIDVariation = harness.Config4UIDVariation
)

// ServerHandle controls a running configuration.
type ServerHandle = harness.Handle

// StartConfiguration launches a Table 3 configuration on a fresh
// world and returns a handle for clients and shutdown.
func StartConfiguration(c Configuration, opts HTTPServerOptions, latency time.Duration) (*ServerHandle, error) {
	return harness.Start(c, opts, latency)
}

// --- Fleet deployment (surviving detection at scale) ------------------

// Fleet is a dispatcher-fronted pool of independent N-variant server
// groups with quarantine-on-alarm recovery: when any group's monitor
// raises an alarm, the group is quarantined, the alarm is recorded in
// an append-only audit log, and a fresh group with newly selected
// reexpression functions takes its place.
type Fleet = fleet.Fleet

// FleetOptions configures a fleet (pool size, per-group variant count
// and variation stack).
type FleetOptions = fleet.Options

// NewFleet builds the pool, starts every group, and begins dispatching
// on the front port.
func NewFleet(opts FleetOptions) (*Fleet, error) { return fleet.New(opts) }

// --- Automated UID transformation (§3.3) -----------------------------

// TransformResult is a transformed variant with its accounting.
type TransformResult = transform.Result

// TransformMinic applies the automated UID variation to mini-C source.
func TransformMinic(src string, f ReexpressionFunc) (*TransformResult, error) {
	return transform.Apply(src, f)
}

// MinicInterpOptions configures mini-C execution (including the
// memory-corruption attacker primitive used in experiments).
type MinicInterpOptions = minic.InterpOptions

// BuildMinicVariants transforms src per variant function and compiles
// each result.
func BuildMinicVariants(name, src string, funcs []ReexpressionFunc, opts MinicInterpOptions) ([]Program, error) {
	compiled, err := transform.BuildVariants(name, src, funcs, opts)
	if err != nil {
		return nil, err
	}
	progs := make([]Program, len(compiled))
	for i, c := range compiled {
		progs[i] = c.Program
	}
	return progs, nil
}

// SampleServerSource is the bundled mini-C port of the case-study
// server's UID module (the change-count experiment's subject).
const SampleServerSource = transform.SampleServerSource
