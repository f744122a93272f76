; repro fuzz case — checkpoint 1: registers differs — block=(24596, 8648, 5, 0, 24578, 14711, 43845, 37766, 37250, 37929, 63285, 8094, 18815, 36, 5474, 0) step=(24596, 8648, 5, 0, 24578, 14711, 43845, 38021, 37250, 37929, 63285, 8094, 18815, 36, 5474, 0)
; replay: repro fuzz --replay divergence_seed115.s
; seed: 0x73
; sp: 0x21C8
; mem-seed: 0x2441659A
; mpu-segb1: 0x0
; mpu-segb2: 0x0
; mpu-sam: 0xFFFF
; mpu-ctl0: 0x0
; r4: 0x3A0C
; r5: 0x3977
; r6: 0xAB45
; r7: 0x9584
; r8: 0x9182
; r9: 0xADC8
; r10: 0xF735
; r11: 0x1F9E
; r12: 0x497F
; r13: 0x4EDE
; r14: 0x1562
; r15: 0x0
    .text
A0:
A1:
A2:
A3:
A4:
A5:
A6:
A7:
A8:
A9:
A10:
A11:
A12:
A13:
A14:
    JEQ A17
A15:
    MOV #0x6001, R4
    MOV.B @R4+, R13
A16:
    SUB #255, R7
A17:
    DADD #32768, R9
A18:
A19:
A20:
A21:
A22:
A23:
A24:
A25:
A26:
A27:
A28:
A29:
A30:
A31:
A32:
A33:
A34:
A35:
A36:
A37:
A38:
A39:
    MOV #1, &0x01F2
