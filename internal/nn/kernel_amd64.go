package nn

// useAVX selects the assembly kernels in kernel_amd64.s. It is set once
// from the CPU; tests clear it to run the Go loops on the same inputs.
var useAVX = hasAVX()

// hasAVX reports whether the CPU has AVX and the OS saves the YMM state
// across context switches (CPUID.1:ECX.OSXSAVE and .AVX, then XCR0 bits 1
// and 2), the check golang.org/x/sys/cpu makes.
func hasAVX() bool {
	_, _, ecx, _ := cpuid(1, 0)
	const osxsave, avx = 1 << 27, 1 << 28
	if ecx&osxsave == 0 || ecx&avx == 0 {
		return false
	}
	xcr0, _ := xgetbv()
	return xcr0&6 == 6
}

//go:noescape
func mulVecAVX(w, x, y []float64)

//go:noescape
func axpyAVX(a float64, x, y []float64)

func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)

func xgetbv() (eax, edx uint32)
