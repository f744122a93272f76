; repro fuzz case — word stores, read-modify-writes and a stack next to code pages, helper calls from that stack, then a store into the division loop
; replay: repro fuzz --replay tail_stores_and_stack.s
; seed: 0x0
; sp: 0x2380
; mem-seed: 0x2
; mpu-segb1: 0x0
; mpu-segb2: 0x0
; mpu-sam: 0xFFFF
; mpu-ctl0: 0x0
    .text
    MOV #20, R10
L0:
    MOV R10, &fuzz_tail+0
    MOV R10, &fuzz_tail+2
    MOV R10, &fuzz_tail+4
    MOV R10, &fuzz_tail+60
    MOV R10, &fuzz_tail+62
    MOV R10, &fuzz_tail+64
    MOV R10, &fuzz_tail+66
    MOV R10, &fuzz_tail+126
    MOV R10, &fuzz_tail+128
    MOV R10, &fuzz_tail+130
    ADD R10, &fuzz_tail+64
    MOV #fuzz_tail+2, R6
    ADD #7, 0(R6)
    MOV #fuzz_tail+130, SP
    PUSH R10
    MOV R10, R12
    MOV #0x0013, R13
    CALL #__udivmod
    MOV R10, R12
    MOV #0x00FF, R13
    CALL #__mulhi
    POP R7
    DEC R10
    JNE L0
    MOV #0x4303, &__udivmod+16
    MOV #0x1234, R12
    MOV #0x0021, R13
    CALL #__udivmod
    MOV #1, &0x01F2
