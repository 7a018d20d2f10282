// Package addrmap is the simulated system's address map: the one
// definition of where code ends and data begins that the engines, the
// trace generators and the experiments all read.
package addrmap

const (
	// CodeLimit is the boundary between the code and data regions:
	// engines that treat the two differently (Gilmont's static-code
	// cipher, the CodePack decompressor) take every address below it
	// as code.
	CodeLimit = 0x1000_0000
	// DataBase is where a workload's data region starts when its
	// trace.Config leaves the region unset (DataSize 0), where the
	// firmware footprint puts its data, and where the protected data
	// window begins. A config that sets DataSize but not DataBase puts
	// its data at address 0, inside the code region: the pointer-chase
	// profile does, and so do E16's streaming and pointer-chase
	// workloads.
	DataBase = 0x4000_0000
)
