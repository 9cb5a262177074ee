/* Sequentially consistent accesses to the elements of an OCaml int array.

   OCaml 5.1 has atomic operations on [Atomic.t] cells only, not on array
   elements, so the dense ownership-record table ([Orec]) reaches its
   words through these three stubs.  Every access is __ATOMIC_SEQ_CST,
   the ordering [Atomic.get]/[set]/[compare_and_set] give, so the
   publication argument made for boxed atomics carries over unchanged.

   The array holds immediates only, so no write barrier is needed, and
   the stubs neither allocate nor reach a safepoint (they are declared
   [@@noalloc]): no collection can move the array while one runs.
   Indices are not checked; [Orec] masks every slot index into range. */

#include <caml/mlvalues.h>

value captured_orec_load(value table, value i)
{
  return __atomic_load_n(&Field(table, Long_val(i)), __ATOMIC_SEQ_CST);
}

value captured_orec_store(value table, value i, value word)
{
  __atomic_store_n(&Field(table, Long_val(i)), word, __ATOMIC_SEQ_CST);
  return Val_unit;
}

value captured_orec_cas(value table, value i, value expected, value desired)
{
  return Val_bool(__atomic_compare_exchange_n(
      &Field(table, Long_val(i)), &expected, desired, 0, __ATOMIC_SEQ_CST,
      __ATOMIC_SEQ_CST));
}
