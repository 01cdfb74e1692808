package mpi

// Payload is the unit of data moved by the runtime. Experiments at paper
// scale run in symbolic mode (Size only, Data nil) so that hundreds of
// gigabytes of simulated traffic cost no host memory; verification tests
// run in data mode (Data non-nil, len(Data) == Size) and check
// byte-exact results end to end.
type Payload struct {
	Size int64
	Data []byte
}

// Bytes builds a data-mode payload from b.
func Bytes(b []byte) Payload { return Payload{Size: int64(len(b)), Data: b} }

// Symbolic builds a size-only payload.
func Symbolic(size int64) Payload { return Payload{Size: size} }
