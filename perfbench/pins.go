package main

import "fmt"

// pinSeed is the committed seed: every run checks the short job of its
// workload at this seed against the outcome pinned below, and a long run at
// this seed against its pin too.
const pinSeed = 1

func pinKey(workload string, seed int64, iterations int) string {
	return fmt.Sprintf("%s/seed=%d/iterations=%d", workload, seed, iterations)
}

// pins are the outcomes of the program at the committed seed. A change that
// alters simulated results must update them on purpose.
var pins = map[string]outcome{
	"paper-dynamic-2d/seed=1/iterations=1":     {TotalTime: 3.6745689999999911, Fingerprint: 0xe03620d4e2de4de1},
	"paper-dynamic-2d/seed=1/iterations=755":   {TotalTime: 2816.028451284154, Fingerprint: 0xf5cad394530c4f46},
	"spike-adaptive-3d/seed=1/iterations=1":    {TotalTime: 1.6714876000000065, Fingerprint: 0x3d5859c12b6a3c54},
	"spike-adaptive-3d/seed=1/iterations=1055": {TotalTime: 1932.4240888245156, Fingerprint: 0xf818d01c650b6c52},
}
